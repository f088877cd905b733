// 8 | Asymmetric String Encryption | [27]
package de.crypto.cognicrypt;

public class SecureAsymmetricEncryptor {
    public KeyPair generateKeyPair() {
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public byte[] encrypt(String data, PublicKey publicKey) {
        byte[] plainText = data.getBytes();
        byte[] cipherText = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(publicKey, "key").
            addParameter(plainText, "plainText").
            addReturnObject(cipherText).generate();
        return cipherText;
    }

    public String decrypt(byte[] cipherText, PrivateKey privateKey) {
        int mode = 2;
        byte[] decrypted = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.Cipher").
            addParameter(mode, "encmode").
            addParameter(privateKey, "key").
            addParameter(cipherText, "plainText").
            addReturnObject(decrypted).generate();
        return new String(decrypted);
    }
}
