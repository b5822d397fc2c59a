package analysis

// Fixture sources shared with the external provenance-summary tests.
var (
	DeepChainSrc  = deepChainSrc
	HelperForkSrc = helperForkSrc
)

// EventKey renders an event's identity for the external tests.
var EventKey = eventKey
