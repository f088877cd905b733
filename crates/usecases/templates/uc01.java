// 1 | PBE on Files | [21]
package de.crypto.cognicrypt;

public class SecureFileEncryptor {
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

    public void encryptFile(String inPath, String outPath, SecretKey key) {
        byte[] plainText = Files.readAllBytes(inPath);
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
        Files.write(outPath, ByteArrays.concat(ivBytes, cipherText));
    }

    public void decryptFile(String inPath, String outPath, SecretKey key) {
        byte[] data = Files.readAllBytes(inPath);
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
        Files.write(outPath, decrypted);
    }
}
