// 20 | ECDH Session Encryption (ChaCha20-Poly1305) | ext
package de.crypto.cognicrypt;

public class EcdhSessionEncryptor {
    public KeyPair generateKeyPair() {
        String kpAlg = "EC";
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            addParameter(kpAlg, "alg").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public byte[] generateSalt() {
        byte[] salt = new byte[16];
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(salt, "out").generate();
        return salt;
    }

    public SecretKey deriveSessionKey(PrivateKey own, PublicKey peer, byte[] salt) {
        byte[] info = "ecdh-session".getBytes();
        String kaAlg = "ECDH";
        String keyAlg = "ChaCha20";
        SecretKey sessionKey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyAgreement").
            addParameter(kaAlg, "alg").
            addParameter(own, "ownKey").
            addParameter(peer, "peerKey").
            considerCrySLRule("javax.crypto.KDF").
            addParameter(salt, "salt").
            addParameter(info, "info").
            considerCrySLRule("javax.crypto.spec.SecretKeySpec").
            addParameter(keyAlg, "alg").
            addReturnObject(sessionKey).generate();
        return sessionKey;
    }

    public byte[] seal(byte[] plainText, SecretKey key) {
        String transformation = "ChaCha20-Poly1305";
        byte[] nonce = new byte[12];
        byte[] cipherText = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(nonce, "out").
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(key, "key").
            addParameter(plainText, "plainText").
            addReturnObject(cipherText).generate();
        return ByteArrays.concat(nonce, cipherText);
    }

    public byte[] open(byte[] data, SecretKey key) {
        String transformation = "ChaCha20-Poly1305";
        byte[] nonce = ByteArrays.slice(data, 0, 12);
        byte[] encrypted = ByteArrays.slice(data, 12, ByteArrays.length(data));
        int mode = 2;
        byte[] decrypted = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(mode, "encmode").
            addParameter(key, "key").
            addParameter(encrypted, "plainText").
            addReturnObject(decrypted).generate();
        return decrypted;
    }
}
