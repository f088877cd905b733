// 10 | Digital Signing of Strings | [21], [27], [29]
package de.crypto.cognicrypt;

public class SecureSigner {
    public KeyPair generateKeyPair() {
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public byte[] sign(String data, PrivateKey privateKey) {
        byte[] dataBytes = data.getBytes();
        byte[] signature = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.Signature").
            addParameter(privateKey, "privKey").
            addParameter(dataBytes, "input").
            addReturnObject(signature).generate();
        return signature;
    }

    public boolean verify(String data, byte[] signature, PublicKey publicKey) {
        byte[] dataBytes = data.getBytes();
        boolean valid = false;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.Signature").
            addParameter(publicKey, "pubKey").
            addParameter(dataBytes, "input").
            addParameter(signature, "signature").
            addReturnObject(valid).generate();
        return valid;
    }
}
