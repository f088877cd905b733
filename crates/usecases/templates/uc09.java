// 9 | Secure User-Password Storage | [21], [27]
package de.crypto.cognicrypt;

public class SecurePasswordStore {
    public byte[] createSalt() {
        byte[] salt = new byte[32];
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(salt, "out").generate();
        return salt;
    }

    public byte[] hashPassword(char[] pwd, byte[] salt) {
        byte[] hash = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.PBEKeySpec").
            addParameter(pwd, "password").
            addParameter(salt, "salt").
            considerCrySLRule("javax.crypto.SecretKeyFactory").
            considerCrySLRule("javax.crypto.SecretKey").
            addReturnObject(hash).generate();
        return hash;
    }

    public boolean verifyPassword(char[] pwd, byte[] salt, byte[] expectedHash) {
        byte[] hash = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.PBEKeySpec").
            addParameter(pwd, "password").
            addParameter(salt, "salt").
            considerCrySLRule("javax.crypto.SecretKeyFactory").
            considerCrySLRule("javax.crypto.SecretKey").
            addReturnObject(hash).generate();
        return Arrays.equals(hash, expectedHash);
    }
}
