// Extended JCA surface beyond the paper's Figure 5: TLS context and
// hostname verification, key storage, and key generation. These classes
// back the shipped rule packs (CryptoGuard taxonomy, the "Java
// Cryptography Uses in the Wild" survey) — they are modeled API classes
// whose usage events the interpreter records, but they are NOT mining
// targets: TargetClasses stays the paper's six, so mining/clustering
// output is unchanged.

package cryptoapi

// Extended API class names.
const (
	SSLContext          = "SSLContext"
	HttpsURLConnection  = "HttpsURLConnection"
	KeyStore            = "KeyStore"
	KeyGenerator        = "KeyGenerator"
	KeyPairGenerator    = "KeyPairGenerator"
	TrustManagerFactory = "TrustManagerFactory"
)

// extendedClasses is the modeled-but-not-mined surface.
var extendedClasses = map[string]bool{
	SSLContext:          true,
	HttpsURLConnection:  true,
	KeyStore:            true,
	KeyGenerator:        true,
	KeyPairGenerator:    true,
	TrustManagerFactory: true,
}

// extendedMethods is appended to apiMethods at init.
var extendedMethods = []MethodSig{
	// SSLContext.
	{Class: SSLContext, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: SSLContext},
	{Class: SSLContext, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: SSLContext},
	{Class: SSLContext, Name: "init", Params: []string{"KeyManager[]", "TrustManager[]", "SecureRandom"}},
	{Class: SSLContext, Name: "getSocketFactory", Params: []string{}, Ret: "SSLSocketFactory"},

	// HttpsURLConnection hostname verification. setDefaultHostnameVerifier
	// is static void: the interpreter records it as a class-level event.
	{Class: HttpsURLConnection, Name: "setDefaultHostnameVerifier", Params: []string{"HostnameVerifier"}, Static: true},
	{Class: HttpsURLConnection, Name: "setDefaultSSLSocketFactory", Params: []string{"SSLSocketFactory"}, Static: true},
	{Class: HttpsURLConnection, Name: "setHostnameVerifier", Params: []string{"HostnameVerifier"}},

	// KeyStore.
	{Class: KeyStore, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: KeyStore},
	{Class: KeyStore, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: KeyStore},
	{Class: KeyStore, Name: "load", Params: []string{"InputStream", "char[]"}},
	{Class: KeyStore, Name: "store", Params: []string{"OutputStream", "char[]"}},
	{Class: KeyStore, Name: "getKey", Params: []string{"String", "char[]"}, Ret: "Key"},

	// KeyGenerator (symmetric keys).
	{Class: KeyGenerator, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: KeyGenerator},
	{Class: KeyGenerator, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: KeyGenerator},
	{Class: KeyGenerator, Name: "init", Params: []string{"int"}},
	{Class: KeyGenerator, Name: "init", Params: []string{"int", "SecureRandom"}},
	{Class: KeyGenerator, Name: "init", Params: []string{"SecureRandom"}},
	{Class: KeyGenerator, Name: "generateKey", Params: []string{}, Ret: "SecretKey"},

	// KeyPairGenerator (asymmetric keys).
	{Class: KeyPairGenerator, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: KeyPairGenerator},
	{Class: KeyPairGenerator, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: KeyPairGenerator},
	{Class: KeyPairGenerator, Name: "initialize", Params: []string{"int"}},
	{Class: KeyPairGenerator, Name: "initialize", Params: []string{"int", "SecureRandom"}},
	{Class: KeyPairGenerator, Name: "generateKeyPair", Params: []string{}, Ret: "KeyPair"},

	// TrustManagerFactory.
	{Class: TrustManagerFactory, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: TrustManagerFactory},
	{Class: TrustManagerFactory, Name: "init", Params: []string{"KeyStore"}},
}

func init() { apiMethods = append(apiMethods, extendedMethods...) }

// AllClasses returns every modeled class name (targets, Mac, extended) in
// a stable order.
func AllClasses() []string {
	out := append([]string{}, TargetClasses...)
	out = append(out, Mac,
		SSLContext, HttpsURLConnection, KeyStore, KeyGenerator,
		KeyPairGenerator, TrustManagerFactory)
	return out
}

// knownAlgorithmStrings is the vocabulary of modeled string arguments:
// digest names, cipher algorithms and transformations, PRNG algorithms,
// MAC algorithms, TLS protocols, keystore types, and key-generation
// algorithms. rulelint uses it to flag prefix tests that cannot match any
// string the model knows about.
var knownAlgorithmStrings = []string{
	// Digests.
	"MD2", "MD4", "MD5", "SHA", "SHA-1", "SHA-224", "SHA-256", "SHA-384",
	"SHA-512", "SHA1",
	// Cipher algorithms / transformations.
	"AES", "AES/CBC/PKCS5Padding", "AES/CBC/NoPadding", "AES/GCM/NoPadding",
	"AES/ECB/PKCS5Padding", "AES/CTR/NoPadding", "DES", "DES/CBC/PKCS5Padding",
	"DESede", "DESede/CBC/PKCS5Padding", "Blowfish", "RC2", "RC4", "ARCFOUR",
	"RSA", "RSA/ECB/PKCS1Padding", "RSA/ECB/OAEPWithSHA-256AndMGF1Padding",
	"EC", "DSA", "PBKDF2WithHmacSHA1", "PBKDF2WithHmacSHA256",
	// PRNG.
	"SHA1PRNG", "NativePRNG", "DRBG",
	// MAC.
	"HmacMD5", "HmacSHA1", "HmacSHA256", "HmacSHA512",
	// TLS protocols.
	"SSL", "SSLv2", "SSLv3", "TLS", "TLSv1", "TLSv1.1", "TLSv1.2", "TLSv1.3",
	// Keystore types.
	"JKS", "JCEKS", "PKCS12", "BKS", "AndroidKeyStore",
	// Providers.
	"BC", "SunJCE",
}

// SomeKnownStringHasPrefix reports whether any modeled algorithm string
// starts with the prefix, both in canonical form (Canon). A startsWith
// constraint whose prefix fails this test can never hold on a modeled
// constant.
func SomeKnownStringHasPrefix(prefix string) bool {
	n := Canon(prefix)
	for _, s := range knownAlgorithmStrings {
		if MatchCanon(s, n, true) {
			return true
		}
	}
	return false
}

// IsSymbolicIntConstant reports whether the literal names a symbolic API
// int constant (ENCRYPT_MODE, SDK_INT, ...). The abstraction keeps these
// symbolic, so rule equality tests against them on int parameters are
// legitimate even though the literal is not numeric.
func IsSymbolicIntConstant(name string) bool {
	for _, v := range knownIntConstants {
		if v == name {
			return true
		}
	}
	return false
}
