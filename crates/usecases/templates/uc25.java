// 25 | Password-Derived MAC Tokens | ext
package de.crypto.cognicrypt;

public class PasswordMacTokenMinter {
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

    public byte[] mint(String payload, SecretKey key) {
        byte[] message = payload.getBytes();
        byte[] tag = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Mac").
            addParameter(key, "key").
            addParameter(message, "input").
            addReturnObject(tag).generate();
        return tag;
    }

    public boolean verify(String payload, byte[] tag, SecretKey key) {
        byte[] message = payload.getBytes();
        byte[] freshTag = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Mac").
            addParameter(key, "key").
            addParameter(message, "input").
            addReturnObject(freshTag).generate();
        return Arrays.equals(tag, freshTag);
    }
}
