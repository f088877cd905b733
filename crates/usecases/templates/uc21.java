// 21 | MAC under an Agreed Key | ext
package de.crypto.cognicrypt;

public class AgreedMacAuthenticator {
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

    public SecretKey deriveMacKey(PrivateKey own, PublicKey peer, byte[] salt) {
        byte[] info = "agreed-mac".getBytes();
        String kaAlg = "ECDH";
        String keyAlg = "HmacSHA256";
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

    public byte[] authenticate(byte[] message, SecretKey key) {
        byte[] tag = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Mac").
            addParameter(key, "key").
            addParameter(message, "input").
            addReturnObject(tag).generate();
        return tag;
    }
}
