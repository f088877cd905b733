// 17 | DH Shared-Secret Derivation | ext
package de.crypto.cognicrypt;

public class DhKeyAgreement {
    public KeyPair generateKeyPair() {
        String kpAlg = "DH";
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            addParameter(kpAlg, "alg").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public byte[] deriveSecret(PrivateKey own, PublicKey peer) {
        byte[] secret = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyAgreement").
            addParameter(own, "ownKey").
            addParameter(peer, "peerKey").
            addReturnObject(secret).generate();
        return secret;
    }
}
