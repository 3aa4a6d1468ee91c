// Allocation-counting hook for zero-alloc assertions in tests.
//
// Linking the `mmhar_alloc_count` OBJECT library replaces the global
// operator new family with forwarding versions that bump a process-wide
// counter (and a byte total). Tests snapshot alloc_count() around a
// steady-state code path and assert the delta is zero — the enforcement teeth behind the
// serving layer's "zero heap allocations per frame" contract.
//
// It is an OBJECT library on purpose: inside a static archive the
// replacement operators would only be linked in when some other symbol
// from the same TU is referenced, which silently disables the hook.
// Linking the object file directly makes the replacement unconditional
// for that binary. Only test binaries link it; the production libraries
// never pay for the counter.
#pragma once

#include <cstdint>

namespace mmhar {

/// Number of global operator new invocations (all forms) so far in this
/// process. Monotonic; only meaningful as a delta across a code region on
/// one thread of interest (other live threads also count).
std::uint64_t alloc_count();

/// Bytes requested from those invocations so far. Same delta semantics as
/// alloc_count(); frees are not subtracted.
std::uint64_t alloc_bytes();

}  // namespace mmhar
