// Package errs holds the sentinel errors shared between the internal
// packages and re-exported by the public hpfq package. They live here —
// not in the root package — because internal/sched, internal/hier,
// internal/fluid and internal/topo cannot import the root package without
// a cycle, yet errors.Is against the public sentinels must match the
// values the internal constructors wrap.
package errs

import "errors"

// ErrUnknownAlgorithm is returned when an algorithm name is not in the
// scheduler registry.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// ErrBadTopology is returned when a link-sharing topology is malformed:
// non-positive shares, duplicate or negative session ids, interior nodes
// carrying session ids, or a root that is not an interior node.
var ErrBadTopology = errors.New("bad topology")

// ErrNoNodeForm is returned when a caller-built policy has no hierarchical
// node form (a nil node constructor); every registered algorithm has one.
var ErrNoNodeForm = errors.New("algorithm has no node form")

// ErrNoFlatForm is returned when a caller-built policy has no standalone
// scheduler form (a nil flat constructor) and can only serve as a hierarchy
// node.
var ErrNoFlatForm = errors.New("policy has no flat form")
