// 13 | Deterministic AEAD (AES-GCM-SIV) | ext
package de.crypto.cognicrypt;

public class DeterministicAeadEncryptor {
    public SecretKey generateKey() {
        SecretKey key = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            addReturnObject(key).generate();
        return key;
    }

    public byte[] seal(byte[] plainText, SecretKey key) {
        String transformation = "AES/GCM-SIV/NoPadding";
        byte[] nonce = new byte[12];
        byte[] cipherText = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(nonce, "out").
            considerCrySLRule("javax.crypto.spec.GCMParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(key, "key").
            addParameter(plainText, "plainText").
            addReturnObject(cipherText).generate();
        return ByteArrays.concat(nonce, cipherText);
    }

    public byte[] open(byte[] data, SecretKey key) {
        String transformation = "AES/GCM-SIV/NoPadding";
        byte[] nonce = ByteArrays.slice(data, 0, 12);
        byte[] encrypted = ByteArrays.slice(data, 12, ByteArrays.length(data));
        int mode = 2;
        byte[] decrypted = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.GCMParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(mode, "encmode").
            addParameter(key, "key").
            addParameter(encrypted, "plainText").
            addReturnObject(decrypted).generate();
        return decrypted;
    }
}
