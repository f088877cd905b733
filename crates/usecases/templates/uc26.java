// 26 | Key Export/Import Transport | ext
package de.crypto.cognicrypt;

public class KeyTransportCodec {
    public byte[] exportFreshKey() {
        byte[] exported = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            considerCrySLRule("javax.crypto.SecretKey").
            addReturnObject(exported).generate();
        return exported;
    }

    public SecretKey importKey(byte[] keyMaterial) {
        SecretKey importedKey = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.SecretKeySpec").
            addParameter(keyMaterial, "keyMaterial").
            addReturnObject(importedKey).generate();
        return importedKey;
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
