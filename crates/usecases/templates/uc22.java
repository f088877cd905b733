// 22 | HMAC Token Minting | ext
package de.crypto.cognicrypt;

public class HmacTokenMinter {
    public SecretKey generateKey() {
        SecretKey key = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            addReturnObject(key).generate();
        return key;
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
