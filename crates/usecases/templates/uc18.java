// 18 | ECDH Shared-Secret Derivation | ext
package de.crypto.cognicrypt;

public class EcdhKeyAgreement {
    public KeyPair generateKeyPair() {
        String kpAlg = "EC";
        KeyPair keyPair = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("java.security.KeyPairGenerator").
            addParameter(kpAlg, "alg").
            considerCrySLRule("java.security.KeyPair").
            addReturnObject(keyPair).generate();
        return keyPair;
    }

    public byte[] deriveSecret(PrivateKey own, PublicKey peer) {
        String kaAlg = "ECDH";
        byte[] secret = null;
        CrySLCodeGenerator.getInstance().
            considerCrySLRule("javax.crypto.KeyAgreement").
            addParameter(kaAlg, "alg").
            addParameter(own, "ownKey").
            addParameter(peer, "peerKey").
            addReturnObject(secret).generate();
        return secret;
    }
}
