// Violates P105: PKCS#1 v1.5 padding from an explicit provider.
import javax.crypto.Cipher;

class P105 {
    void wrap() throws Exception {
        Cipher c = Cipher.getInstance("RSA/ECB/PKCS1Padding", "BC");
    }
}
