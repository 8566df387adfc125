//! Cluster substrate: nodes, container slots and the ResourceManager.
//!
//! The simulator models the YARN ResourceManager as a pool of map-task
//! containers spread over nodes. Attempts request a container; if none is
//! free they wait in a FIFO queue (the single-queue FIFO scheduler the
//! paper's experiments use). Nodes can carry a slowdown factor so the
//! contention model in `chronos-trace` can make some machines persistently
//! slow — one of the documented causes of stragglers.

use crate::config::ClusterSpec;
use crate::error::SimError;
use crate::ids::{AttemptId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// How the ResourceManager picks a node for an incoming attempt.
///
/// All policies select through the count-bucket index (see
/// [`ResourceManager`]), never by scanning the node table per request, and
/// all of them are deterministic: ties break toward the highest node index,
/// the same convention the original most-free scan used. See
/// `docs/placement.md` for the full semantics and digest-safety rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Load-balance: the node with the most free slots wins (the paper's
    /// single-queue FIFO behavior, bit-identical to the pre-refactor
    /// engine). The default everywhere.
    #[default]
    MostFree,
    /// Consolidate: the busiest node that still has a free slot wins,
    /// leaving the emptiest nodes idle for large future requests.
    BinPack,
    /// The chronos-kubernetes-scheduler score: prefer nodes whose maximum
    /// remaining attempt time already covers the incoming attempt's
    /// expected duration (bin-packing tier), then nodes whose busy window
    /// it extends the least (extension tier), and only then empty nodes.
    /// Scored in integer microseconds of sim time so decisions stay
    /// digest-safe.
    DeadlineAware,
}

impl PlacementPolicy {
    /// Every placement policy, in display order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::MostFree,
        PlacementPolicy::BinPack,
        PlacementPolicy::DeadlineAware,
    ];

    /// The stable CLI/config label of this policy.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::MostFree => "most-free",
            PlacementPolicy::BinPack => "bin-pack",
            PlacementPolicy::DeadlineAware => "deadline-aware",
        }
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Hand-written serde impls (the vendored derive has no `#[serde(...)]`
// attribute support): the wire form is the kebab-case CLI label, and a
// missing/null field deserializes to the default — so cluster specs
// serialized before the placement layer existed keep their exact meaning.
impl Serialize for PlacementPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl<'de> Deserialize<'de> for PlacementPolicy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Null => Ok(PlacementPolicy::default()),
            serde::Value::Str(label) => label
                .parse()
                .map_err(|err: ParsePlacementError| serde::Error::msg(err.to_string())),
            _ => Err(serde::Error::msg(
                "expected a placement policy label string",
            )),
        }
    }
}

/// Error parsing a [`PlacementPolicy`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlacementError {
    label: String,
}

impl fmt::Display for ParsePlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown placement policy `{}` (expected one of: ",
            self.label
        )?;
        for (index, policy) in PlacementPolicy::ALL.iter().enumerate() {
            if index > 0 {
                f.write_str(", ")?;
            }
            f.write_str(policy.label())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParsePlacementError {}

impl FromStr for PlacementPolicy {
    type Err = ParsePlacementError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PlacementPolicy::ALL
            .into_iter()
            .find(|policy| policy.label() == s)
            .ok_or_else(|| ParsePlacementError {
                label: s.to_string(),
            })
    }
}

/// Context for one placement request, in integer microseconds of sim time.
/// `MostFree` and `BinPack` ignore both fields; `DeadlineAware` compares
/// the expected duration against each candidate node's remaining work.
///
/// `expected_micros` must be a *causal* estimate (e.g. the task profile's
/// mean): the engine draws the actual work sample only after placement, so
/// feeding the sampled value back here would leak the future into the
/// decision — and change the RNG draw order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementRequest {
    /// Current sim time in microseconds.
    pub now_micros: u64,
    /// Expected duration of the incoming attempt in microseconds.
    pub expected_micros: u64,
}

/// The outcome of a successful placement decision. All fields are integers
/// so the decision can be traced digest-safely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementChoice {
    /// The chosen node.
    pub node: NodeId,
    /// Free slots on the node at decision time (before this assignment).
    pub free_slots: u32,
    /// The `DeadlineAware` score tier: 2 = the attempt fits inside the
    /// node's busy window, 1 = it extends the window, 0 = empty node.
    /// Always 0 for `MostFree` and `BinPack`, which do not score.
    pub score_bucket: u8,
}

/// A worker node with a fixed number of container slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node identifier.
    pub id: NodeId,
    /// Total container slots on the node.
    pub slots: u32,
    /// Slots currently occupied by running attempts.
    pub busy: u32,
    /// Execution slowdown factor (≥ 1) applied to attempts placed here.
    pub slowdown: f64,
}

impl Node {
    /// Free slots on this node.
    #[must_use]
    pub fn free_slots(&self) -> u32 {
        self.slots.saturating_sub(self.busy)
    }
}

/// The ResourceManager: tracks slot occupancy and the queue of attempts
/// waiting for a container.
///
/// Placement must stay O(1): the engine consults the RM once per container
/// request and once per release in the event hot loop. Instead of scanning
/// all nodes for the most-free one, the RM keeps a *count-bucket index* —
/// one bitmap of node indices per possible free-slot count — plus the
/// current maximum count and a running free-slot total. `try_assign` picks
/// the **highest-index** node in the top bucket, which reproduces the
/// previous `max_by_key(free_slots)` scan exactly (`max_by_key` returns the
/// last of equally-maximal elements), so placements — and therefore the
/// straggler patterns on slowed nodes — are bit-identical to the old code.
///
/// Per-node completion tracking exists only for
/// [`PlacementPolicy::DeadlineAware`], whose placement score is its only
/// reader: under `MostFree` and `BinPack`,
/// [`ResourceManager::note_scheduled_completion`] records nothing and
/// [`ResourceManager::release_scheduled`] is a plain
/// [`ResourceManager::release`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceManager {
    nodes: Vec<Node>,
    pending: VecDeque<AttemptId>,
    total_slots: u64,
    /// Running count of free slots across all nodes.
    free_total: u64,
    /// `free_index[c]` is a bitmap (64 node indices per word) of the nodes
    /// with exactly `c` free slots.
    free_index: Vec<Vec<u64>>,
    /// Highest `c ≥ 1` with a non-empty `free_index[c]`; 0 when the cluster
    /// is full.
    max_free: u32,
    /// The configured placement policy (from [`ClusterSpec::placement`]).
    placement: PlacementPolicy,
    /// Per node: the scheduled completion times (absolute sim micros) of
    /// the attempts running on it, maintained by the engine through
    /// [`ResourceManager::note_scheduled_completion`] /
    /// [`ResourceManager::release_scheduled`], under `DeadlineAware` only
    /// (empty vectors otherwise). `DeadlineAware` derives each node's
    /// remaining-work window from this; the inner vectors are bounded by
    /// `slots_per_node`, so the max scan stays O(slots), not O(nodes).
    node_completions: Vec<Vec<u64>>,
}

#[inline]
fn set_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1 << (idx % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] &= !(1 << (idx % 64));
}

impl ResourceManager {
    /// Builds the ResourceManager from a cluster specification.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the specification is invalid.
    pub fn new(spec: &ClusterSpec) -> Result<Self, SimError> {
        spec.validate()?;
        let nodes: Vec<Node> = (0..spec.nodes)
            .map(|i| Node {
                id: NodeId::new(u64::from(i)),
                slots: spec.slots_per_node,
                busy: 0,
                slowdown: spec.slowdown_of(i),
            })
            .collect();
        let words = nodes.len().div_ceil(64);
        let mut free_index = vec![vec![0u64; words]; spec.slots_per_node as usize + 1];
        for i in 0..nodes.len() {
            set_bit(&mut free_index[spec.slots_per_node as usize], i);
        }
        let node_count = nodes.len();
        Ok(ResourceManager {
            nodes,
            pending: VecDeque::new(),
            total_slots: spec.total_slots(),
            free_total: spec.total_slots(),
            free_index,
            max_free: spec.slots_per_node,
            placement: spec.placement,
            node_completions: vec![Vec::new(); node_count],
        })
    }

    /// The configured placement policy.
    #[must_use]
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Total number of container slots in the cluster.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Number of currently free container slots.
    #[must_use]
    pub fn free_slots(&self) -> u64 {
        self.free_total
    }

    /// Number of attempts waiting for a container.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The node table (read-only).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The slowdown factor of a node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for an unknown node id.
    pub fn slowdown_of(&self, node: NodeId) -> Result<f64, SimError> {
        self.nodes
            .get(node.raw() as usize)
            .map(|n| n.slowdown)
            .ok_or_else(|| SimError::unknown(format!("{node}")))
    }

    /// Tries to grab a free slot with the *most-free* placement, regardless
    /// of the configured policy. Returns the chosen node or `None` when the
    /// cluster is full.
    ///
    /// Among equally-free nodes the highest node index wins — the same
    /// choice the former linear `max_by_key` scan made (see the struct
    /// docs), now found in O(1) through the count-bucket index. Placement-
    /// aware callers use [`ResourceManager::try_place`] instead.
    pub fn try_assign(&mut self) -> Option<NodeId> {
        let (best, count) = self.pick_most_free()?;
        self.commit_assign(best, count);
        Some(self.nodes[best].id)
    }

    /// Tries to grab a free slot under the configured [`PlacementPolicy`].
    /// Returns the decision (node, free slots at decision time, score tier)
    /// or `None` when the cluster is full.
    ///
    /// Every policy selects through the count-bucket index: `MostFree`
    /// reads the top bucket in O(1), `BinPack` the lowest non-empty bucket
    /// in O(slots), and `DeadlineAware` scores only the nodes present in
    /// the free buckets (O(free nodes), via bitmap iteration) rather than
    /// the whole node table.
    pub fn try_place(&mut self, request: PlacementRequest) -> Option<PlacementChoice> {
        let (best, count, score_bucket) = match self.placement {
            PlacementPolicy::MostFree => {
                let (best, count) = self.pick_most_free()?;
                (best, count, 0)
            }
            PlacementPolicy::BinPack => {
                let (best, count) = self.pick_bin_pack()?;
                (best, count, 0)
            }
            PlacementPolicy::DeadlineAware => self.pick_deadline_aware(&request)?,
        };
        self.commit_assign(best, count);
        Some(PlacementChoice {
            node: self.nodes[best].id,
            free_slots: count as u32,
            score_bucket,
        })
    }

    /// Most-free selection: the highest node index in the top bucket.
    fn pick_most_free(&self) -> Option<(usize, usize)> {
        if self.free_total == 0 {
            return None;
        }
        let count = self.max_free as usize;
        debug_assert!(count > 0, "free_total > 0 implies a non-empty top bucket");
        // Invariant: `max_free` names a non-empty bucket while `free_total > 0`.
        #[allow(clippy::expect_used)]
        let (word, bits) = self.free_index[count]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)
            .expect("max_free bucket is non-empty");
        Some((word * 64 + (63 - bits.leading_zeros() as usize), count))
    }

    /// Bin-pack selection: the highest node index in the *lowest* non-empty
    /// bucket — the busiest node that still has a free slot.
    fn pick_bin_pack(&self) -> Option<(usize, usize)> {
        if self.free_total == 0 {
            return None;
        }
        for count in 1..=self.max_free as usize {
            if let Some((word, bits)) = self.free_index[count]
                .iter()
                .enumerate()
                .rev()
                .find(|(_, bits)| **bits != 0)
            {
                return Some((word * 64 + (63 - bits.leading_zeros() as usize), count));
            }
        }
        unreachable!("free_total > 0 implies a non-empty bucket at or below max_free")
    }

    /// Deadline-aware selection: machine-aware hierarchical scoring over
    /// the nodes in the free buckets (the chronos-kubernetes-scheduler
    /// rule, extended with node speed). The primary criterion is the
    /// attempt's *effective* duration on the candidate — expected duration
    /// scaled by the node's slowdown — so stragglers are avoided whenever a
    /// faster slot exists; the snippet's fit/extend/empty tiers break ties
    /// among equal-speed nodes, and the highest node index breaks exact
    /// ties, like every other policy.
    fn pick_deadline_aware(&self, request: &PlacementRequest) -> Option<(usize, usize, u8)> {
        if self.free_total == 0 {
            return None;
        }
        let mut best: Option<(i128, u8, i128, usize, usize)> = None;
        for count in 1..=self.max_free as usize {
            for (word_index, word) in self.free_index[count].iter().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = 63 - bits.leading_zeros() as usize;
                    bits &= !(1u64 << bit);
                    let idx = word_index * 64 + bit;
                    // One deterministic multiply-and-truncate: slowdowns
                    // come from config, never from measurements, so the
                    // result is identical on every worker and host. Only
                    // integers reach the trace (the tier below).
                    let effective =
                        (request.expected_micros as f64 * self.nodes[idx].slowdown) as u64;
                    let (tier, key) = self.deadline_score(idx, count as u32, effective, request);
                    let rank = (-i128::from(effective), tier, key, idx);
                    let better = match best {
                        None => true,
                        Some((neg_eff, best_tier, best_key, best_idx, _)) => {
                            rank >= (neg_eff, best_tier, best_key, best_idx)
                        }
                    };
                    if better {
                        best = Some((rank.0, tier, key, idx, count));
                    }
                }
            }
        }
        best.map(|(_, tier, _, idx, count)| (idx, count, tier))
    }

    /// The hierarchical deadline-aware score of placing an attempt whose
    /// *effective* duration on node `idx` (expected × node slowdown) is
    /// `effective`, with `free` free slots. Returns `(tier, within-tier
    /// key)`; both compare ascending, after the effective-duration primary
    /// criterion applied by [`ResourceManager::pick_deadline_aware`].
    ///
    /// * tier 2 (bin-packing): the node's busy window already covers the
    ///   attempt — prefer the *longest* window (consolidate), then free
    ///   slots.
    /// * tier 1 (extension): the attempt outlives the window — prefer the
    ///   *smallest* extension, then free slots.
    /// * tier 0 (empty node): penalized; prefer more free slots.
    ///
    /// The key is integer microseconds throughout, so the traced tier and
    /// every traced field stay digest-safe.
    fn deadline_score(
        &self,
        idx: usize,
        free: u32,
        effective: u64,
        request: &PlacementRequest,
    ) -> (u8, i128) {
        let existing = self.node_completions[idx]
            .iter()
            .map(|completion| completion.saturating_sub(request.now_micros))
            .max()
            .unwrap_or(0);
        if existing > 0 && effective <= existing {
            (2, i128::from(existing) * 100 + i128::from(free) * 10)
        } else if existing > 0 {
            (
                1,
                i128::from(free) * 10 - i128::from(effective - existing) * 100,
            )
        } else {
            (0, i128::from(free))
        }
    }

    /// Moves node `best` (currently in bucket `count`) one bucket down and
    /// updates the occupancy accounting — the shared commit step of every
    /// selection policy.
    fn commit_assign(&mut self, best: usize, count: usize) {
        clear_bit(&mut self.free_index[count], best);
        set_bit(&mut self.free_index[count - 1], best);
        self.nodes[best].busy += 1;
        self.free_total -= 1;
        while self.max_free > 0
            && self.free_index[self.max_free as usize]
                .iter()
                .all(|bits| *bits == 0)
        {
            self.max_free -= 1;
        }
        self.debug_assert_consistent();
    }

    /// Records that the attempt just started on `node` is scheduled to
    /// complete at `completion_micros` (absolute sim micros). Unknown nodes
    /// are ignored, and so is every call unless the placement policy is
    /// `DeadlineAware`. Paired with [`ResourceManager::release_scheduled`].
    pub fn note_scheduled_completion(&mut self, node: NodeId, completion_micros: u64) {
        if self.placement != PlacementPolicy::DeadlineAware {
            return;
        }
        if let Some(entries) = self.node_completions.get_mut(node.raw() as usize) {
            entries.push(completion_micros);
        }
    }

    /// Releases a slot on `node` and forgets the attempt's scheduled
    /// completion time. Completion times that were never noted (e.g. slots
    /// assigned through the bare [`ResourceManager::try_assign`] test entry
    /// point, or any slot under a placement policy other than
    /// `DeadlineAware`) are silently absent.
    ///
    /// # Errors
    ///
    /// Same contract as [`ResourceManager::release`].
    pub fn release_scheduled(
        &mut self,
        node: NodeId,
        completion_micros: u64,
    ) -> Result<(), SimError> {
        self.release(node)?;
        if self.placement != PlacementPolicy::DeadlineAware {
            return Ok(());
        }
        let entries = &mut self.node_completions[node.raw() as usize];
        if let Some(pos) = entries
            .iter()
            .position(|completion| *completion == completion_micros)
        {
            entries.swap_remove(pos);
        }
        Ok(())
    }

    /// Releases a slot on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEntity`] for an unknown node, or
    /// [`SimError::InvalidAction`] if the node has no busy slot to release
    /// (which would indicate an engine accounting bug).
    pub fn release(&mut self, node: NodeId) -> Result<(), SimError> {
        let idx = node.raw() as usize;
        let entry = self
            .nodes
            .get_mut(idx)
            .ok_or_else(|| SimError::unknown(format!("{node}")))?;
        if entry.busy == 0 {
            return Err(SimError::invalid_action(format!(
                "released a slot on {node} which had no busy slots"
            )));
        }
        entry.busy -= 1;
        let now_free = entry.free_slots() as usize;
        clear_bit(&mut self.free_index[now_free - 1], idx);
        set_bit(&mut self.free_index[now_free], idx);
        self.free_total += 1;
        self.max_free = self.max_free.max(now_free as u32);
        self.debug_assert_consistent();
        Ok(())
    }

    /// Checks the derived count-bucket index against a from-scratch rebuild
    /// from the node table. Returns `None` when consistent, or a
    /// description of the first divergence — which would indicate an
    /// accounting bug in an assign/release path.
    #[cfg(any(test, debug_assertions))]
    fn consistency_violation(&self) -> Option<String> {
        let words = self.nodes.len().div_ceil(64);
        let mut free_index = vec![vec![0u64; words]; self.free_index.len()];
        let mut free_total = 0u64;
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.busy > node.slots {
                return Some(format!(
                    "node {idx} has {} busy slots but only {} total",
                    node.busy, node.slots
                ));
            }
            let free = node.free_slots() as usize;
            if free >= free_index.len() {
                return Some(format!(
                    "node {idx} has {free} free slots, beyond bucket range {}",
                    free_index.len()
                ));
            }
            set_bit(&mut free_index[free], idx);
            free_total += free as u64;
        }
        let max_free = (1..free_index.len())
            .rev()
            .find(|count| free_index[*count].iter().any(|bits| *bits != 0))
            .unwrap_or(0) as u32;
        if free_total != self.free_total {
            return Some(format!(
                "free_total is {} but the node table sums to {free_total}",
                self.free_total
            ));
        }
        if max_free != self.max_free {
            return Some(format!(
                "max_free is {} but the node table implies {max_free}",
                self.max_free
            ));
        }
        if free_index != self.free_index {
            return Some("free_index diverges from a from-scratch rebuild".to_string());
        }
        None
    }

    /// Debug-build guard run after every assign/release: the incremental
    /// index must exactly match a from-scratch rebuild.
    #[inline]
    fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        if let Some(violation) = self.consistency_violation() {
            panic!("ResourceManager index inconsistent: {violation}");
        }
    }

    /// Adds an attempt to the back of the container wait queue.
    pub fn enqueue_pending(&mut self, attempt: AttemptId) {
        self.pending.push_back(attempt);
    }

    /// Pops the next waiting attempt, if any.
    pub fn dequeue_pending(&mut self) -> Option<AttemptId> {
        self.pending.pop_front()
    }

    /// Removes a specific attempt from the wait queue (used when a queued
    /// attempt is killed before it ever starts). Returns whether it was
    /// present.
    pub fn remove_pending(&mut self, attempt: AttemptId) -> bool {
        if let Some(pos) = self.pending.iter().position(|a| *a == attempt) {
            self.pending.remove(pos);
            true
        } else {
            false
        }
    }

    /// True when at least one attempt is waiting for a container — the
    /// condition Mantri checks before it keeps spawning extra attempts.
    #[must_use]
    pub fn has_waiting_work(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(nodes: u32, slots: u32) -> ResourceManager {
        ResourceManager::new(&ClusterSpec::homogeneous(nodes, slots)).unwrap()
    }

    #[test]
    fn construction_matches_spec() {
        let rm = rm(4, 2);
        assert_eq!(rm.total_slots(), 8);
        assert_eq!(rm.free_slots(), 8);
        assert_eq!(rm.nodes().len(), 4);
        assert!(!rm.has_waiting_work());
    }

    #[test]
    fn invalid_spec_rejected() {
        assert!(ResourceManager::new(&ClusterSpec::homogeneous(0, 2)).is_err());
    }

    #[test]
    fn assign_until_full_then_none() {
        let mut rm = rm(2, 2);
        let mut assigned = Vec::new();
        for _ in 0..4 {
            assigned.push(rm.try_assign().expect("slot available"));
        }
        assert_eq!(rm.free_slots(), 0);
        assert!(rm.try_assign().is_none());
        // Load balancing: both nodes should have received two attempts.
        let on_node0 = assigned.iter().filter(|n| n.raw() == 0).count();
        assert_eq!(on_node0, 2);
    }

    #[test]
    fn release_frees_capacity() {
        let mut rm = rm(1, 1);
        let node = rm.try_assign().unwrap();
        assert!(rm.try_assign().is_none());
        rm.release(node).unwrap();
        assert!(rm.try_assign().is_some());
    }

    #[test]
    fn release_errors() {
        let mut rm = rm(1, 1);
        assert!(rm.release(NodeId::new(9)).is_err());
        assert!(rm.release(NodeId::new(0)).is_err());
    }

    #[test]
    fn pending_queue_fifo_and_removal() {
        let mut rm = rm(1, 1);
        rm.enqueue_pending(AttemptId::new(1));
        rm.enqueue_pending(AttemptId::new(2));
        rm.enqueue_pending(AttemptId::new(3));
        assert_eq!(rm.pending_len(), 3);
        assert!(rm.has_waiting_work());
        assert!(rm.remove_pending(AttemptId::new(2)));
        assert!(!rm.remove_pending(AttemptId::new(2)));
        assert_eq!(rm.dequeue_pending(), Some(AttemptId::new(1)));
        assert_eq!(rm.dequeue_pending(), Some(AttemptId::new(3)));
        assert_eq!(rm.dequeue_pending(), None);
    }

    #[test]
    fn indexed_assignment_matches_linear_scan_reference() {
        // The count-bucket index must reproduce the old
        // `max_by_key(free_slots)` scan (last max wins) placement-for-
        // placement under arbitrary assign/release interleavings.
        let mut rm = rm(7, 3);
        let mut reference: Vec<u32> = vec![3; 7]; // free slots per node
        let mut running: Vec<u64> = Vec::new();
        // A fixed pseudo-random interleaving (splitmix-style) of assigns
        // and releases.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..2_000 {
            if next() % 3 != 0 || running.is_empty() {
                let expected = reference
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| **f > 0)
                    .max_by_key(|(_, f)| **f)
                    .map(|(i, _)| i as u64);
                let got = rm.try_assign().map(|n| n.raw());
                assert_eq!(got, expected);
                if let Some(node) = got {
                    reference[node as usize] -= 1;
                    running.push(node);
                }
            } else {
                let node = running.swap_remove((next() % running.len() as u64) as usize);
                rm.release(NodeId::new(node)).unwrap();
                reference[node as usize] += 1;
            }
            assert_eq!(rm.free_slots(), u64::from(reference.iter().sum::<u32>()));
        }
    }

    #[test]
    fn slowdowns_surface_through_rm() {
        let mut spec = ClusterSpec::homogeneous(2, 1);
        spec.slowdowns = vec![1.0, 4.0];
        let rm = ResourceManager::new(&spec).unwrap();
        assert_eq!(rm.slowdown_of(NodeId::new(1)).unwrap(), 4.0);
        assert!(rm.slowdown_of(NodeId::new(5)).is_err());
    }

    fn rm_with(nodes: u32, slots: u32, placement: PlacementPolicy) -> ResourceManager {
        ResourceManager::new(&ClusterSpec::homogeneous(nodes, slots).with_placement(placement))
            .unwrap()
    }

    #[test]
    fn placement_labels_round_trip() {
        for policy in PlacementPolicy::ALL {
            assert_eq!(policy.label().parse::<PlacementPolicy>(), Ok(policy));
            assert_eq!(policy.to_string(), policy.label());
        }
        let err = "mostfree".parse::<PlacementPolicy>().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("mostfree"));
        for policy in PlacementPolicy::ALL {
            assert!(message.contains(policy.label()));
        }
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::MostFree);
    }

    #[test]
    fn most_free_try_place_matches_try_assign() {
        let mut a = rm_with(3, 2, PlacementPolicy::MostFree);
        let mut b = rm_with(3, 2, PlacementPolicy::MostFree);
        for _ in 0..6 {
            let via_assign = a.try_assign();
            let via_place = b.try_place(PlacementRequest::default());
            assert_eq!(via_assign, via_place.map(|choice| choice.node));
        }
        assert!(a.try_assign().is_none());
        assert!(b.try_place(PlacementRequest::default()).is_none());
    }

    #[test]
    fn bin_pack_prefers_the_busiest_node_with_a_free_slot() {
        let mut rm = rm_with(3, 2, PlacementPolicy::BinPack);
        // All nodes empty: the highest index in the (single) bucket wins.
        let first = rm.try_place(PlacementRequest::default()).unwrap();
        assert_eq!(first.node, NodeId::new(2));
        assert_eq!(first.free_slots, 2);
        // Node 2 now has 1 free slot — the lowest non-empty bucket — so
        // bin-pack keeps stacking onto it while most-free would move on.
        let second = rm.try_place(PlacementRequest::default()).unwrap();
        assert_eq!(second.node, NodeId::new(2));
        assert_eq!(second.free_slots, 1);
        // Node 2 is full: back to the emptiest bucket's highest index.
        let third = rm.try_place(PlacementRequest::default()).unwrap();
        assert_eq!(third.node, NodeId::new(1));
    }

    #[test]
    fn deadline_aware_tiers_order_fit_extend_empty() {
        let mut rm = rm_with(3, 2, PlacementPolicy::DeadlineAware);
        // Occupy one slot on nodes 0 and 1 with known completion times.
        // Node 0's window runs to t=100s, node 1's to t=20s; node 2 stays
        // empty.
        rm.nodes[0].busy = 1;
        rm.nodes[1].busy = 1;
        clear_bit(&mut rm.free_index[2], 0);
        set_bit(&mut rm.free_index[1], 0);
        clear_bit(&mut rm.free_index[2], 1);
        set_bit(&mut rm.free_index[1], 1);
        rm.free_total -= 2;
        rm.note_scheduled_completion(NodeId::new(0), 100_000_000);
        rm.note_scheduled_completion(NodeId::new(1), 20_000_000);
        assert_eq!(rm.consistency_violation(), None);

        // A 30 s attempt fits inside node 0's window (tier 2), extends
        // node 1's (tier 1), and node 2 is empty (tier 0): bin-packing
        // wins, and the longest window is preferred.
        let fit = rm
            .try_place(PlacementRequest {
                now_micros: 0,
                expected_micros: 30_000_000,
            })
            .unwrap();
        assert_eq!(fit.node, NodeId::new(0));
        assert_eq!(fit.score_bucket, 2);
        assert_eq!(fit.free_slots, 1);

        // Node 0 is now full. The same attempt extends node 1's window;
        // extension beats the empty-node tier.
        let extend = rm
            .try_place(PlacementRequest {
                now_micros: 0,
                expected_micros: 30_000_000,
            })
            .unwrap();
        assert_eq!(extend.node, NodeId::new(1));
        assert_eq!(extend.score_bucket, 1);

        // Only the empty node remains.
        let empty = rm
            .try_place(PlacementRequest {
                now_micros: 0,
                expected_micros: 30_000_000,
            })
            .unwrap();
        assert_eq!(empty.node, NodeId::new(2));
        assert_eq!(empty.score_bucket, 0);
    }

    #[test]
    fn deadline_aware_window_shrinks_with_time_and_release() {
        let mut rm = rm_with(2, 2, PlacementPolicy::DeadlineAware);
        let first = rm
            .try_place(PlacementRequest {
                now_micros: 0,
                expected_micros: 50_000_000,
            })
            .unwrap();
        assert_eq!(first.node, NodeId::new(1));
        rm.note_scheduled_completion(first.node, 60_000_000);

        // At t=20s a 30s attempt still fits inside node 1's 40s window.
        let packed = rm
            .try_place(PlacementRequest {
                now_micros: 20_000_000,
                expected_micros: 30_000_000,
            })
            .unwrap();
        assert_eq!(packed.node, NodeId::new(1));
        assert_eq!(packed.score_bucket, 2);
        rm.note_scheduled_completion(packed.node, 55_000_000);

        // Release both attempts: node 1's window is forgotten, so the next
        // placement sees two empty nodes again.
        rm.release_scheduled(NodeId::new(1), 60_000_000).unwrap();
        rm.release_scheduled(NodeId::new(1), 55_000_000).unwrap();
        let fresh = rm
            .try_place(PlacementRequest {
                now_micros: 70_000_000,
                expected_micros: 30_000_000,
            })
            .unwrap();
        assert_eq!(fresh.score_bucket, 0);
        assert_eq!(rm.consistency_violation(), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A deterministic splitmix-style op stream: the generated `salt`
        /// compactly encodes an arbitrary assign/release interleaving (the
        /// vendored proptest subset has no collection strategies).
        fn next_op(state: &mut u64) -> u64 {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state >> 33
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Satellite: after any assign/release sequence, under any
            /// placement policy, the count-bucket index exactly matches a
            /// from-scratch rebuild from the node table, and only
            /// `DeadlineAware` tracks node completions.
            #[test]
            fn index_matches_rebuild_after_any_op_sequence(
                placement_index in 0usize..3,
                nodes in 1u32..80,
                slots in 1u32..5,
                salt in 0u64..u64::MAX,
                op_count in 0usize..300,
            ) {
                let placement = PlacementPolicy::ALL[placement_index];
                let mut rm = rm_with(nodes, slots, placement);
                let mut state = salt;
                let mut running: Vec<(NodeId, u64)> = Vec::new();
                for _ in 0..op_count {
                    let roll = next_op(&mut state);
                    if roll % 3 != 0 || running.is_empty() {
                        let request = PlacementRequest {
                            now_micros: roll % 1_000_000,
                            expected_micros: next_op(&mut state) % 100_000_000,
                        };
                        if let Some(choice) = rm.try_place(request) {
                            let completion = request.now_micros + request.expected_micros;
                            rm.note_scheduled_completion(choice.node, completion);
                            running.push((choice.node, completion));
                        }
                    } else {
                        let index = (next_op(&mut state) % running.len() as u64) as usize;
                        let victim = running.swap_remove(index);
                        rm.release_scheduled(victim.0, victim.1).unwrap();
                    }
                    prop_assert_eq!(rm.consistency_violation(), None);
                    if placement != PlacementPolicy::DeadlineAware {
                        prop_assert!(rm.node_completions.iter().all(Vec::is_empty));
                    }
                }
            }

            /// Satellite: `MostFree` placement reproduces the pre-refactor
            /// engine's selection — a linear `max_by_key(free_slots)` scan
            /// over the node table (last max wins) — bit-for-bit under
            /// arbitrary assign/release interleavings.
            #[test]
            fn most_free_matches_pre_refactor_linear_scan(
                nodes in 1u32..80,
                slots in 1u32..5,
                salt in 0u64..u64::MAX,
                op_count in 0usize..300,
            ) {
                let mut rm = rm_with(nodes, slots, PlacementPolicy::MostFree);
                let mut reference: Vec<u32> = vec![slots; nodes as usize];
                let mut running: Vec<u64> = Vec::new();
                let mut state = salt;
                for _ in 0..op_count {
                    if next_op(&mut state) % 3 != 0 || running.is_empty() {
                        let expected = reference
                            .iter()
                            .enumerate()
                            .filter(|(_, free)| **free > 0)
                            .max_by_key(|(_, free)| **free)
                            .map(|(idx, _)| idx as u64);
                        let got = rm
                            .try_place(PlacementRequest::default())
                            .map(|choice| choice.node.raw());
                        prop_assert_eq!(got, expected);
                        if let Some(node) = got {
                            reference[node as usize] -= 1;
                            running.push(node);
                        }
                    } else {
                        let index = (next_op(&mut state) % running.len() as u64) as usize;
                        let node = running.swap_remove(index);
                        rm.release(NodeId::new(node)).unwrap();
                        reference[node as usize] += 1;
                    }
                }
            }
        }
    }
}
