// 7 | Hybrid Byte-Array Encryption | [21]
package de.crypto.cognicrypt;

public class HybridByteArrayEncryptor {
    public KeyPair generateKeyPair() {
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public SecretKey generateSessionKey() {
        SecretKey key = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            addReturnObject(key).generate();
        return key;
    }

    public byte[] wrapSessionKey(SecretKey sessionKey, PublicKey publicKey) {
        int mode = 3;
        byte[] wrapped = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(mode, "encmode").
            addParameter(publicKey, "key").
            addParameter(sessionKey, "wrappedKeyIn").
            addReturnObject(wrapped).generate();
        return wrapped;
    }

    public SecretKey unwrapSessionKey(byte[] wrapped, PrivateKey privateKey) {
        int mode = 4;
        SecretKey sessionKey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(mode, "encmode").
            addParameter(privateKey, "key").
            addParameter(wrapped, "wrappedKeyBytes").
            addReturnObject(sessionKey).generate();
        return sessionKey;
    }

    public byte[] encryptData(byte[] plainText, SecretKey key) {
        byte[] ivBytes = new byte[16];
        byte[] cipherText = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(ivBytes, "out").
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(ivBytes, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(key, "key").
            addParameter(plainText, "plainText").
            addReturnObject(cipherText).generate();
        return ByteArrays.concat(ivBytes, cipherText);
    }

    public byte[] decryptData(byte[] data, SecretKey key) {
        byte[] ivBytes = ByteArrays.slice(data, 0, 16);
        byte[] encrypted = ByteArrays.slice(data, 16, ByteArrays.length(data));
        int mode = 2;
        byte[] decrypted = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(ivBytes, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(mode, "encmode").
            addParameter(key, "key").
            addParameter(encrypted, "plainText").
            addReturnObject(decrypted).generate();
        return decrypted;
    }
}
