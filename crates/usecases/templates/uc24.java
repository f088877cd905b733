// 24 | HKDF-Derived MAC Tokens | ext
package de.crypto.cognicrypt;

public class DerivedMacTokenMinter {
    public byte[] generateSalt() {
        byte[] salt = new byte[16];
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(salt, "out").generate();
        return salt;
    }

    public SecretKey deriveMacKey(byte[] ikm, byte[] salt) {
        byte[] info = "token-mac".getBytes();
        String keyAlg = "HmacSHA256";
        SecretKey macKey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KDF").
            addParameter(ikm, "ikm").
            addParameter(salt, "salt").
            addParameter(info, "info").
            considerCrySLRule("javax.crypto.spec.SecretKeySpec").
            addParameter(keyAlg, "alg").
            addReturnObject(macKey).generate();
        return macKey;
    }

    public byte[] mint(byte[] payload, SecretKey key) {
        byte[] tag = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Mac").
            addParameter(key, "key").
            addParameter(payload, "input").
            addReturnObject(tag).generate();
        return tag;
    }

    public boolean verify(byte[] payload, byte[] tag, SecretKey key) {
        byte[] freshTag = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Mac").
            addParameter(key, "key").
            addParameter(payload, "input").
            addReturnObject(freshTag).generate();
        return Arrays.equals(tag, freshTag);
    }
}
