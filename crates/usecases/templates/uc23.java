// 23 | HKDF Subkey Expansion | ext
package de.crypto.cognicrypt;

public class HkdfSubkeyDeriver {
    public byte[] generateSalt() {
        byte[] salt = new byte[16];
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(salt, "out").generate();
        return salt;
    }

    public byte[] expandKey(byte[] salt, byte[] info) {
        byte[] subkey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            considerCrySLRule("javax.crypto.SecretKey").
            considerCrySLRule("javax.crypto.KDF").
            addParameter(salt, "salt").
            addParameter(info, "info").
            addReturnObject(subkey).generate();
        return subkey;
    }
}
