//! The free-core index: one bit per server, set while the server can start
//! a task immediately. Pack-first placement reads it to find the
//! lowest-id candidate with a free core in `O(N/64 + log N)` instead of
//! probing servers one by one.

use holdcsim_server::server::{Server, ServerId};

/// `true` if `server` can start a task now: awake, and its queued,
/// running and `committed` (placed but awaiting inbound transfers) tasks
/// leave a core free. This is the predicate [`FreeCores`] indexes.
pub fn has_free_core(server: &Server, committed: u32) -> bool {
    server.is_awake() && server.pending() + (committed as usize) < server.core_count() as usize
}

/// A bitset over server ids: bit `i` is set ⇔ server `i` satisfies
/// [`has_free_core`].
///
/// The owner keeps it current by calling [`FreeCores::refresh`] after
/// every change to a server's mode, load or committed count; the index
/// never looks at the servers on its own.
///
/// ```
/// use holdcsim_des::time::SimTime;
/// use holdcsim_sched::FreeCores;
/// use holdcsim_server::server::{Server, ServerConfig, ServerId};
///
/// let servers: Vec<Server> = (0..3)
///     .map(|i| Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(1)))
///     .collect();
/// let mut free = FreeCores::from_servers(&servers, &[0, 0, 0]);
/// assert_eq!(free.first_in(&[ServerId(1), ServerId(2)]), Some(ServerId(1)));
/// // One task committed to server 1 claims its only core.
/// free.refresh(ServerId(1), &servers[1], 1);
/// assert_eq!(free.first_in(&[ServerId(1), ServerId(2)]), Some(ServerId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeCores {
    words: Vec<u64>,
    len: usize,
}

impl FreeCores {
    /// An index over `len` servers with every bit set — the state of a
    /// freshly built farm, where every server is awake and empty. Filled a
    /// word at a time.
    pub fn all_free(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        FreeCores { words, len }
    }

    /// The index of `servers` carrying `committed[i]` extra tasks each,
    /// built by evaluating [`has_free_core`] per server.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn from_servers(servers: &[Server], committed: &[u32]) -> Self {
        assert_eq!(
            servers.len(),
            committed.len(),
            "one committed count per server"
        );
        let mut free = FreeCores {
            words: vec![0; servers.len().div_ceil(64)],
            len: servers.len(),
        };
        for (i, (s, &c)) in servers.iter().zip(committed).enumerate() {
            free.set(i, has_free_core(s, c));
        }
        free
    }

    /// Number of servers indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Re-evaluates server `id`'s bit from its current state.
    pub fn refresh(&mut self, id: ServerId, server: &Server, committed: u32) {
        self.set(id.0 as usize, has_free_core(server, committed));
    }

    fn set(&mut self, i: usize, on: bool) {
        let mask = 1u64 << (i % 64);
        let w = &mut self.words[i / 64];
        if on {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// The first set bit at or after `from`.
    fn next_set(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// The lowest-id member of `candidates` whose bit is set.
    ///
    /// `candidates` must be ascending by id. The scan leapfrogs: it jumps
    /// to the next set bit at or after the current candidate, then gallops
    /// through the candidates to the first one at or after that bit. When
    /// the candidates are a run of consecutive ids (the unfiltered
    /// eligible set) that costs `O(N/64 + log N)`; candidates that
    /// interleave with the set bits cost at most one step per candidate
    /// skipped.
    pub fn first_in(&self, candidates: &[ServerId]) -> Option<ServerId> {
        let mut rest = candidates;
        loop {
            let &c = rest.first()?;
            let bit = self.next_set(c.0 as usize)?;
            if bit == c.0 as usize {
                return Some(c);
            }
            rest = &rest[gallop(rest, bit)..];
        }
    }
}

/// Index of the first element of the ascending `ids` that is `>= bit`
/// (`ids.len()` if none): exponential probe, then a binary search inside
/// the bracketed run.
fn gallop(ids: &[ServerId], bit: usize) -> usize {
    let below = |id: &ServerId| (id.0 as usize) < bit;
    let mut hi = 1;
    while hi < ids.len() && below(&ids[hi]) {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(ids.len());
    lo + ids[lo..hi].partition_point(below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_des::time::SimTime;
    use holdcsim_server::server::ServerConfig;

    fn farm(n: u32) -> Vec<Server> {
        (0..n)
            .map(|i| Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(1)))
            .collect()
    }

    fn ids(v: &[u32]) -> Vec<ServerId> {
        v.iter().copied().map(ServerId).collect()
    }

    #[test]
    fn all_free_matches_a_fresh_farm_at_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 128, 200] {
            let servers = farm(n);
            let committed = vec![0; n as usize];
            assert_eq!(
                FreeCores::all_free(n as usize),
                FreeCores::from_servers(&servers, &committed),
                "n = {n}"
            );
        }
    }

    #[test]
    fn first_in_skips_claimed_servers_across_words() {
        let servers = farm(200);
        let mut committed = vec![1; 200];
        for i in [70, 130, 199] {
            committed[i] = 0;
        }
        let free = FreeCores::from_servers(&servers, &committed);
        let all: Vec<ServerId> = (0..200).map(ServerId).collect();
        assert_eq!(free.first_in(&all), Some(ServerId(70)));
        assert_eq!(free.first_in(&ids(&[0, 5, 129, 130])), Some(ServerId(130)));
        assert_eq!(free.first_in(&ids(&[71, 131, 198])), None);
        assert_eq!(free.first_in(&ids(&[199])), Some(ServerId(199)));
        assert_eq!(free.first_in(&[]), None);
    }

    #[test]
    fn gallop_finds_the_lower_bound() {
        let v = ids(&[1, 3, 5, 7, 9, 11, 13]);
        for bit in 0..16 {
            let want = v
                .iter()
                .position(|id| id.0 as usize >= bit)
                .unwrap_or(v.len());
            assert_eq!(gallop(&v, bit), want, "bit {bit}");
        }
    }
}
