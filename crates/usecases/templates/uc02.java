// 2 | PBE on Strings | [21], [27]
package de.crypto.cognicrypt;

public class SecureStringEncryptor {
    public SecretKey getKey(char[] pwd) {
        byte[] salt = new byte[32];
        SecretKey encryptionKey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(salt, "out").
            considerCrySLRule("javax.crypto.spec.PBEKeySpec").
            addParameter(pwd, "password").
            considerCrySLRule("javax.crypto.SecretKeyFactory").
            considerCrySLRule("javax.crypto.SecretKey").
            considerCrySLRule("javax.crypto.spec.SecretKeySpec").
            addReturnObject(encryptionKey).generate();
        return encryptionKey;
    }

    public byte[] encrypt(String data, SecretKey key) {
        byte[] plainText = data.getBytes();
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

    public String decrypt(byte[] data, SecretKey key) {
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
        return new String(decrypted);
    }
}
