//lint:simulator
package directives

// The LM000 expectations for this package live in TestDirectiveDiagnostics:
// a malformed directive occupies its whole source line, so there is no room
// for a // want comment next to it.

//lint:meterfree
func removedVerb() {}

//lint:waive determinism
func missingWaiveReason() {}

//lint:waive nosuch because reasons
func unknownAnalyzer() {}

//lint:frobnicate
func unknownVerb() {}

//lint:waive determinism peers is a singleton here
func valid() {}
