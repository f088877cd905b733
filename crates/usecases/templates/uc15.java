// 15 | ChaCha20-Poly1305 on Strings | ext
package de.crypto.cognicrypt;

public class ChaChaPolyStringEncryptor {
    public SecretKey generateKey() {
        String chachaAlg = "ChaCha20";
        int chachaKeySize = 256;
        SecretKey key = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyGenerator").
            addParameter(chachaAlg, "alg").
            addParameter(chachaKeySize, "keySize").
            addReturnObject(key).generate();
        return key;
    }

    public byte[] sealText(String text, SecretKey key) {
        byte[] plainText = text.getBytes();
        String transformation = "ChaCha20-Poly1305";
        byte[] nonce = new byte[12];
        byte[] cipherText = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.SecureRandom").
            addParameter(nonce, "out").
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(key, "key").
            addParameter(plainText, "plainText").
            addReturnObject(cipherText).generate();
        return ByteArrays.concat(nonce, cipherText);
    }

    public String openText(byte[] data, SecretKey key) {
        String transformation = "ChaCha20-Poly1305";
        byte[] nonce = ByteArrays.slice(data, 0, 12);
        byte[] encrypted = ByteArrays.slice(data, 12, ByteArrays.length(data));
        int mode = 2;
        byte[] decrypted = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.spec.IvParameterSpec").
            addParameter(nonce, "iv").
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(transformation, "transformation").
            addParameter(mode, "encmode").
            addParameter(key, "key").
            addParameter(encrypted, "plainText").
            addReturnObject(decrypted).generate();
        return new String(decrypted);
    }
}
