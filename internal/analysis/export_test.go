package analysis

// Fixture sources shared with the external provenance-summary tests.
var (
	DeepChainSrc  = deepChainSrc
	HelperForkSrc = helperForkSrc
)
