//! Hardware stream prefetcher (extension).
//!
//! A classic per-core stream prefetcher: it watches the demand L2-miss
//! line stream, detects ascending or descending unit-stride streams, and
//! once confident issues prefetches `DEGREE` lines ahead. Prefetch fills
//! install into the caches without waking any instruction.
//!
//! The paper's baseline has no prefetcher (Table 2); this is the
//! substrate for the *prefetch-aware scheduling* follow-up line of work —
//! prefetch traffic competes with demand traffic for exactly the DRAM
//! resources the schedulers arbitrate, visible in `ablation_prefetch`.

/// Concurrent streams tracked (LRU-replaced).
const STREAMS: usize = 8;
/// Lines prefetched ahead once a stream is confirmed.
const DEGREE: u64 = 2;
/// Misses with a consistent stride required before prefetching.
const CONFIDENCE: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Last line index observed in this stream.
    last_line: u64,
    /// +1 or −1.
    direction: i64,
    /// Consecutive stride confirmations.
    hits: u32,
    /// LRU stamp.
    lru: u64,
}

/// Detects unit-stride streams in the demand-miss line sequence and emits
/// prefetch candidates.
#[derive(Debug, Clone, Default)]
pub struct StreamPrefetcher {
    entries: Vec<StreamEntry>,
    clock: u64,
    /// Prefetch lines emitted (statistics).
    pub issued: u64,
}

impl StreamPrefetcher {
    /// Trains on a demand-miss `line` index and returns the line indices
    /// to prefetch (possibly empty).
    pub fn train(&mut self, line: u64) -> Vec<u64> {
        self.clock += 1;
        let clock = self.clock;

        // Continue an existing stream?
        for e in &mut self.entries {
            let next_up = e.last_line.wrapping_add(1);
            let next_down = e.last_line.wrapping_sub(1);
            let dir = if line == next_up {
                1
            } else if line == next_down {
                -1
            } else {
                continue;
            };
            if e.hits > 0 && dir != e.direction {
                // Direction flip: restart confidence.
                e.hits = 0;
            }
            e.direction = dir;
            e.hits += 1;
            e.last_line = line;
            e.lru = clock;
            if e.hits >= CONFIDENCE {
                let mut out = Vec::with_capacity(DEGREE as usize);
                for k in 1..=DEGREE {
                    let target = if dir > 0 {
                        line.wrapping_add(k)
                    } else {
                        line.wrapping_sub(k)
                    };
                    out.push(target);
                }
                self.issued += out.len() as u64;
                return out;
            }
            return Vec::new();
        }

        // Allocate a new stream (LRU victim).
        let entry = StreamEntry {
            last_line: line,
            direction: 1,
            hits: 0,
            lru: clock,
        };
        if self.entries.len() < STREAMS {
            self.entries.push(entry);
        } else if let Some(victim) = self.entries.iter_mut().min_by_key(|e| e.lru) {
            *victim = entry;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::default()
    }

    #[test]
    fn ascending_stream_detected_after_confidence() {
        let mut p = pf();
        assert!(p.train(100).is_empty()); // allocate
        assert!(p.train(101).is_empty()); // hits = 1
        let out = p.train(102); // hits = 2 = confidence
        assert_eq!(out, vec![103, 104]);
        assert_eq!(p.issued, 2);
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = pf();
        p.train(500);
        p.train(499);
        assert_eq!(p.train(498), vec![497, 496]);
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = pf();
        for line in [10u64, 5000, 333, 77, 90_000, 42, 1_000_000, 7] {
            assert!(p.train(line).is_empty());
        }
        assert_eq!(p.issued, 0);
    }

    #[test]
    fn interleaved_streams_both_tracked() {
        let mut p = pf();
        // Two interleaved streams far apart.
        for i in 0..4u64 {
            p.train(1_000 + i);
            p.train(9_000_000 + i);
        }
        assert!(p.issued >= 4, "issued = {}", p.issued);
    }

    #[test]
    fn lru_replacement_bounds_table() {
        let mut p = pf();
        p.train(10);
        for k in 1..=STREAMS as u64 {
            p.train(k * 2_000); // the last one evicts the line-10 stream
        }
        assert_eq!(p.entries.len(), STREAMS);
        // The evicted stream must retrain from scratch.
        p.train(11);
        assert!(p.train(12).is_empty());
        assert_eq!(p.train(13), vec![14, 15]);
    }

    #[test]
    fn direction_flip_resets_confidence() {
        let mut p = pf();
        p.train(100);
        p.train(101);
        p.train(102); // confident ascending
        let out = p.train(101); // flip
        assert!(out.is_empty(), "flip must not prefetch: {out:?}");
    }
}
