// 11 | Hashing of Strings | [27]
package de.crypto.cognicrypt;

public class SecureHasher {
    public byte[] hash(String data) {
        byte[] dataBytes = data.getBytes();
        byte[] digest = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.MessageDigest").
            addParameter(dataBytes, "input").
            addReturnObject(digest).generate();
        return digest;
    }
}
