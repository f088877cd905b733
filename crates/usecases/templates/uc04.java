// 4 | Symmetric-Key Encryption | [27], [29]
package de.crypto.cognicrypt;

public class SecureSymmetricEncryptor {
    public SecretKey generateKey() {
        SecretKey key = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            addReturnObject(key).generate();
        return key;
    }

    public byte[] encrypt(byte[] plainText, SecretKey key) {
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

    public byte[] decrypt(byte[] data, SecretKey key) {
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
