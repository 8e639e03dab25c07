// Package use misuses tri.TriBool in all the ways the analyzer must catch.
package use

import "tbbad/tri"

// Accept silently conflates Unknown with False: no justification comment.
func Accept(v tri.TriBool) bool {
	return v == tri.True
}

// Reject silently conflates Unknown with True.
func Reject(v tri.TriBool) bool {
	return v != tri.False
}

// FromInt converts an integer into a truth value outside the home package.
func FromInt(i int) tri.TriBool {
	return tri.TriBool(i)
}

// Encode converts a truth value to an integer outside the home package.
func Encode(v tri.TriBool) int8 {
	return int8(v)
}

// MentionsMarkerMidSentence carries a comment that only contains the marker
// inside a sentence; it justifies nothing. Must be flagged.
func MentionsMarkerMidSentence(v tri.TriBool) bool {
	return v == tri.True // see the note on tribool: semantics elsewhere
}

// BareMarker writes the marker with no reason. Must be flagged.
func BareMarker(v tri.TriBool) bool {
	return v == tri.True // tribool:
}
