//! The shard map: consistent hashing with virtual nodes.
//!
//! Keys hash into a fixed number of **shards**; each shard hashes onto a
//! ring of **virtual nodes** (every physical node contributes `vnodes`
//! ring points), and the shard's **replication chain** is the first `M`
//! distinct *live* physical nodes walking clockwise from the shard's
//! ring position. Two properties carry the fleet's correctness and
//! rebalance cost, both pinned by property tests below:
//!
//! * **coverage** — under any live set of at least `M` nodes, every
//!   shard's chain has exactly `M` distinct live members;
//! * **stability** — removing one node only changes the chains that
//!   contained it (expected `M/N` of all shards): a failover rebalances
//!   `O(K·M/N)` keys, never the whole keyspace.

use std::collections::BTreeSet;
use std::sync::Arc;

use veros_spec::rng::fnv1a;

/// The fleet's sharding geometry. Pure data + pure functions: every
/// node and client computes identical chains from identical live sets,
/// which is what makes client-side routing and node-side serving agree
/// without a metadata service in the data path.
#[derive(Clone, Debug)]
pub struct ShardMap {
    nodes: u16,
    replication: usize,
    shards: u32,
    /// Sorted ring of (point, physical node) virtual nodes. Shared:
    /// every node and client of a fleet holds the map, and a clone is a
    /// reference count, not a copy of the ring.
    ring: Arc<[(u64, u16)]>,
}

impl ShardMap {
    /// Builds the map for physical nodes `0..nodes`, `replication`-way
    /// chains, `shards` key partitions, and `vnodes` ring points per
    /// physical node.
    pub fn new(nodes: u16, replication: usize, shards: u32, vnodes: usize) -> Self {
        let mut ring = Vec::with_capacity(nodes as usize * vnodes);
        for n in 0..nodes {
            for v in 0..vnodes {
                let mut tag = [0u8; 4];
                tag[..2].copy_from_slice(&n.to_le_bytes());
                tag[2..].copy_from_slice(&(v as u16).to_le_bytes());
                ring.push((fnv1a(&tag), n));
            }
        }
        ring.sort_unstable();
        Self {
            nodes,
            replication: replication.max(1),
            shards: shards.max(1),
            ring: ring.into(),
        }
    }

    /// Number of physical nodes the map was built for.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Replication factor `M`.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard a key belongs to.
    pub fn shard_of(&self, key: &str) -> u32 {
        (fnv1a(key.as_bytes()) % self.shards as u64) as u32
    }

    /// The replication chain of `shard` under `live`: the first `M`
    /// distinct live physical nodes clockwise from the shard's ring
    /// position (fewer when fewer than `M` nodes are live). `chain[0]`
    /// is the head (all writes enter here), the last entry the tail
    /// (preferred read replica).
    pub fn chain(&self, shard: u32, live: &BTreeSet<u16>) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.replication);
        if self.ring.is_empty() {
            return out;
        }
        let point = fnv1a(&shard.to_le_bytes());
        let start = self.ring.partition_point(|(p, _)| *p < point);
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if live.contains(&node) && !out.contains(&node) {
                out.push(node);
                if out.len() == self.replication {
                    break;
                }
            }
        }
        out
    }

    /// The replication chain serving `key` under `live`.
    pub fn chain_for_key(&self, key: &str, live: &BTreeSet<u16>) -> Vec<u16> {
        self.chain(self.shard_of(key), live)
    }

    /// The live set containing every node.
    pub fn all_live(&self) -> BTreeSet<u16> {
        (0..self.nodes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_spec::rng::SpecRng;

    fn map() -> ShardMap {
        ShardMap::new(8, 3, 64, 16)
    }

    /// Coverage: every shard (hence every key) is owned by exactly `M`
    /// distinct live nodes, under the full live set and under every
    /// single-node failure.
    #[test]
    fn every_key_owned_by_exactly_m_live_nodes() {
        let m = map();
        let full = m.all_live();
        for dead in (0..8u16).map(Some).chain([None]) {
            let mut live = full.clone();
            if let Some(d) = dead {
                live.remove(&d);
            }
            for shard in 0..m.shards() {
                let chain = m.chain(shard, &live);
                assert_eq!(chain.len(), 3, "shard {shard}, dead {dead:?}");
                let distinct: BTreeSet<u16> = chain.iter().copied().collect();
                assert_eq!(distinct.len(), 3, "duplicate members");
                assert!(chain.iter().all(|n| live.contains(n)), "dead member in chain");
            }
        }
    }

    /// Keys route to the chain of their shard, deterministically.
    #[test]
    fn key_routing_is_deterministic_and_shard_aligned() {
        let m = map();
        let live = m.all_live();
        let mut rng = SpecRng::seeded(7);
        for _ in 0..200 {
            let key = format!("obj-{}", rng.next_u64());
            let shard = m.shard_of(&key);
            assert!(shard < m.shards());
            assert_eq!(m.chain_for_key(&key, &live), m.chain(shard, &live));
        }
    }

    /// Stability: killing one node changes only the chains that
    /// contained it — the rebalance is O(M/N) of the shards, not a
    /// global reshuffle — and surviving prefixes are preserved (the
    /// new chain is the old chain minus the victim plus one appended
    /// successor).
    #[test]
    fn rebalance_after_one_death_moves_few_shards() {
        let m = map();
        let full = m.all_live();
        for dead in 0..8u16 {
            let mut live = full.clone();
            live.remove(&dead);
            let mut changed = 0;
            for shard in 0..m.shards() {
                let before = m.chain(shard, &full);
                let after = m.chain(shard, &live);
                if before == after {
                    continue;
                }
                changed += 1;
                // Only chains that contained the victim change…
                assert!(before.contains(&dead), "untouched chain moved: shard {shard}");
                // …and the survivors keep their relative order (the new
                // member joins; nobody else is displaced).
                let survivors: Vec<u16> =
                    before.iter().copied().filter(|n| *n != dead).collect();
                assert_eq!(after[..survivors.len()], survivors[..], "shard {shard}");
            }
            // Expected fraction M/N = 3/8 of shards; allow 2x slack for
            // ring imbalance but rule out global reshuffles.
            let ceiling = (m.shards() as usize * m.replication() * 2) / m.nodes() as usize;
            assert!(
                changed <= ceiling,
                "death of {dead} moved {changed}/{} shards (> {ceiling})",
                m.shards()
            );
        }
    }

    /// Virtual nodes spread shard ownership: every node heads at least
    /// one shard and no node heads a majority.
    #[test]
    fn virtual_nodes_balance_ownership() {
        let m = map();
        let live = m.all_live();
        let mut heads = [0usize; 8];
        for shard in 0..m.shards() {
            heads[m.chain(shard, &live)[0] as usize] += 1;
        }
        for (n, h) in heads.iter().enumerate() {
            assert!(*h > 0, "node {n} heads nothing");
            assert!(*h < 32, "node {n} heads {h}/64 shards");
        }
    }

    /// Degenerate live sets degrade gracefully: fewer than M live nodes
    /// yield a shorter chain, never a panic or a dead member.
    #[test]
    fn short_live_sets_shrink_the_chain() {
        let m = map();
        let live: BTreeSet<u16> = [2u16].into_iter().collect();
        for shard in 0..m.shards() {
            assert_eq!(m.chain(shard, &live), vec![2]);
        }
        assert!(m.chain(0, &BTreeSet::new()).is_empty());
    }
}
