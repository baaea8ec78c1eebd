//! The allocator-policy abstraction.
//!
//! The paper's red-zone + low-fat heap is one point in a wider design
//! space (Fully Randomized Pointers, MESH, CAMP -- see PAPERS.md). This
//! module captures the *contract* between an allocator policy and the
//! rest of the system, so alternative placement strategies can be
//! plugged in without touching the check emitter, the runtime hooks, or
//! the oracle (DESIGN.md §14).
//!
//! # What the emitted checks may assume
//!
//! The Figure-4 check sequence is compiled once and is *policy
//! independent*: it derives `base(ptr)` from the SIZES/MAGICS tables and
//! reads one metadata word at the object base. Any [`AllocPolicy`] must
//! therefore guarantee, for every object it hands out:
//!
//! 1. **Slot discipline.** The object occupies one *slot* -- a
//!    class-size-aligned chunk of the class's 32 GiB region -- so
//!    `lowfat_base(p)` computed by the table lookup lands on the slot
//!    base for any `p` inside the slot.
//! 2. **In-band metadata.** The `u64` at `base+0` holds the object's
//!    user *extent* `E`: user bytes live in `[base+16+delta,
//!    base+16+delta+size)` with `E = delta + size`, `E == 0` encodes
//!    Free (the §4.2 merged state), and `E <= class_size - 16` (the
//!    size-hardening bound). The word at `base+8` is the canary.
//! 3. **Readable guards.** Metadata reads issued by checks for stray
//!    pointers near the object (adjacent slots, region head/tail) see
//!    zeroed memory, never a fault.
//!
//! `delta` is the policy's *allocation offset*: the default low-fat
//! policy always uses `delta == 0` (the user pointer is `base + 16`),
//! while the randomized policy may shift the user area within the slot's
//! padding. A non-zero delta turns the first `delta` bytes after the
//! redzone into *slack* that the merged check cannot distinguish from
//! user data -- the probabilistic-detection trade-off discussed in
//! EXPERIMENTS.md.

use crate::alloc::{AllocError, AllocStats};
use redfat_vm::Vm;

/// Identifies a registered allocator policy (the `--alloc-policy` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicyKind {
    /// The paper's deterministic low-fat bump/free-list policy.
    #[default]
    LowFat,
    /// Randomized low-fat: random slot selection plus randomized
    /// allocation offsets (Fully Randomized Pointers style).
    RandLowFat,
}

impl AllocPolicyKind {
    /// Every registered policy, in canonical (wire-encoding) order.
    pub const ALL: [AllocPolicyKind; 2] = [AllocPolicyKind::LowFat, AllocPolicyKind::RandLowFat];

    /// The CLI/wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AllocPolicyKind::LowFat => "lowfat",
            AllocPolicyKind::RandLowFat => "rand-lowfat",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<AllocPolicyKind> {
        AllocPolicyKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for AllocPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a policy placed an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Slot base (class-size aligned; metadata lives here).
    pub base: u64,
    /// Allocation offset: the user pointer is `base + 16 + delta`.
    /// Always a multiple of 16 so user pointers stay 16-byte aligned.
    pub delta: u64,
}

/// An allocator placement policy.
///
/// Implementations own only bookkeeping; guest memory is always accessed
/// through the [`Vm`] passed in. The [`RedFatHeap`](crate::RedFatHeap)
/// wrapper layers the Figure-3 redzone/metadata protocol on top, so
/// policies deal in raw slots: `padded` sizes already include the
/// 16-byte redzone, and metadata words are written by the wrapper.
pub trait AllocPolicy: Send {
    /// Which registered policy this is.
    fn kind(&self) -> AllocPolicyKind;

    /// Installs the SIZES/MAGICS tables and region guards into the
    /// guest (the `LD_PRELOAD` analogue). Identical across policies by
    /// contract: hardened images must not depend on the policy.
    fn install(&self, vm: &mut Vm);

    /// Places an object serving `padded` bytes (user size + redzone),
    /// returning the slot base and allocation offset. The policy must
    /// ensure `delta % 16 == 0` and `delta + padded <= class_size`.
    fn alloc_object(&mut self, vm: &mut Vm, padded: u64) -> Result<Placement, AllocError>;

    /// Retires the object at slot `base` (a base previously returned by
    /// [`AllocPolicy::alloc_object`] and not freed since). The slot must
    /// stay mapped (quarantined) so dangling dereferences read `E == 0`
    /// metadata instead of faulting.
    fn free_object(&mut self, vm: &mut Vm, base: u64) -> Result<(), AllocError>;

    /// The allocation offset recorded for the object at slot `base`: the
    /// live object's delta, or the last delta the slot was handed out
    /// with (so double-free reporting can reconstruct the user pointer).
    /// 0 when the slot is unknown.
    fn delta_of(&self, base: u64) -> u64;

    /// Whether the slot at `base` currently holds a live object
    /// according to the policy's own bookkeeping. This is the tie
    /// breaker for the one state the merged metadata cannot express:
    /// a live *zero-size* object also reads `E == 0`.
    fn slot_is_live(&self, base: u64) -> bool;

    /// `size(ptr)`: class size for heap pointers, `u64::MAX` otherwise.
    /// Must agree with what the guest-side SIZES table computes.
    fn size(&self, ptr: u64) -> u64;

    /// `base(ptr)`: slot base for heap pointers, 0 otherwise. Must agree
    /// with what the guest-side check sequence computes, and never
    /// attribute `ptr` to a slot that does not contain it.
    fn base(&self, ptr: u64) -> u64;

    /// Allocation statistics.
    fn stats(&self) -> AllocStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in AllocPolicyKind::ALL {
            assert_eq!(AllocPolicyKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(AllocPolicyKind::parse("mesh"), None);
    }

    #[test]
    fn default_kind_is_the_paper_policy() {
        assert_eq!(AllocPolicyKind::default(), AllocPolicyKind::LowFat);
    }
}
