import java.security.MessageDigest;
import java.security.SecureRandom;
import javax.crypto.Cipher;
import javax.crypto.spec.IvParameterSpec;
import javax.crypto.spec.PBEKeySpec;
import javax.crypto.spec.SecretKeySpec;

// A helper-heavy program in the shape of the check-why workload: entry
// methods pass constants down helper chains of local work to crypto sinks.
// It also reads and writes this-fields and a heap object, forks on
// branches, and runs an instance initializer, so summary keys carry field
// and heap context.
public class HelperChain {
    private char[] pw;
    private String mode = "AES/CBC/PKCS5Padding";
    private Holder holder = new Holder();
    private int rounds;

    {
        rounds = 1000;
    }

    public void entry0(byte[] data) throws Exception {
        h0("SHA-1", data);
        h0("SHA-256", data);
        h0("SHA-1", data);
        iv(data, true);
    }

    public void entry1(byte[] data, boolean strong) throws Exception {
        if (strong) {
            h0("SHA-512", data);
            mode = "AES/GCM/NoPadding";
        } else {
            h0("MD5", data);
        }
        h0("SHA-1", data);
        encrypt(data);
        holder.salt = "pepper!!".getBytes();
        derive(holder.salt);
        derive(holder.salt);
    }

    public void entry2(byte[] data) throws Exception {
        for (int i = 0; i < 3; i++) {
            encrypt(data);
        }
        iv(data, false);
        derive(data);
        seed(Constants.SEED.getBytes());
    }

    private void h0(String v, byte[] data) throws Exception {
        String s0 = "h0";
        String s1 = s0 + "1";
        String s2 = s1 + "2";
        h1(v, data);
    }

    private void h1(String v, byte[] data) throws Exception {
        String s0 = "h1";
        String s1 = s0 + "1";
        int n = s1.length();
        h2(v, data);
    }

    private void h2(String v, byte[] data) throws Exception {
        String s0 = "h2";
        String s1 = s0 + "1";
        String s2 = s1 + "2";
        String s3 = s2 + "3";
        h3(v, data);
    }

    private void h3(String v, byte[] data) throws Exception {
        String s0 = "h3";
        h4(v, data);
    }

    private void h4(String v, byte[] data) throws Exception {
        MessageDigest md = MessageDigest.getInstance(v);
        md.update(data);
    }

    private void encrypt(byte[] data) throws Exception {
        Cipher c = Cipher.getInstance(mode, "BC");
        c.update(data);
    }

    private void iv(byte[] data, boolean fixed) throws Exception {
        byte[] bytes = new byte[16];
        if (!fixed) {
            SecureRandom sr = new SecureRandom();
            sr.nextBytes(bytes);
        }
        IvParameterSpec spec = new IvParameterSpec(bytes);
    }

    private void derive(byte[] salt) throws Exception {
        PBEKeySpec spec = new PBEKeySpec(pw, salt, rounds, 256);
        SecretKeySpec key = new SecretKeySpec("0123456789abcdef".getBytes(), "AES");
    }

    private void seed(byte[] s) throws Exception {
        SecureRandom sr = SecureRandom.getInstance("SHA1PRNG");
        sr.setSeed(s);
    }
}

class Holder {
    byte[] salt;
}

class Constants {
    static final String SEED = "fixed-seed";
}
