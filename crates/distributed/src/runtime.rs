//! A synchronous message-passing round engine over a graph topology.
//!
//! Both standard distributed models are supported by the same engine:
//!
//! * **LOCAL** — in each round every node may send an arbitrarily large
//!   message to each neighbour; only the number of rounds matters.
//! * **CONGEST** — messages are limited to `O(log n)` bits (a constant number
//!   of "words": node identifiers, weights, small counters). The engine
//!   tracks the per-edge word load of every round so algorithms can be
//!   checked against the model's bandwidth limit.
//!
//! Algorithms drive the engine through [`Network::round`], supplying a
//! closure that maps each node's inbox to its outgoing messages. The closure
//! style keeps node state wherever the algorithm finds convenient (usually a
//! `Vec` indexed by vertex) while the engine owns delivery, round counting,
//! and congestion accounting.

use ftspan_graph::{Graph, VertexId};

use crate::metrics::RoundStats;

/// Which distributed model the engine should enforce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Model {
    /// Unbounded message sizes; only rounds are counted.
    #[default]
    Local,
    /// Messages of at most `words_per_message` words per edge per round.
    Congest {
        /// Bandwidth per edge per round, in words (3 in
        /// [`Model::congest`]).
        words_per_message: usize,
    },
}

impl Model {
    /// The standard CONGEST model: one `O(log n)`-bit message (a constant
    /// number of words) per edge per round. We allow 3 words so a message can
    /// carry a vertex id, an edge weight, and a small tag, matching the
    /// paper's "constant number of node IDs and weights".
    #[must_use]
    pub fn congest() -> Self {
        Model::Congest {
            words_per_message: 3,
        }
    }

    /// Returns the per-message word budget, if any.
    #[must_use]
    pub fn word_limit(&self) -> Option<usize> {
        match self {
            Model::Local => None,
            Model::Congest { words_per_message } => Some(*words_per_message),
        }
    }
}

/// A message sent to a neighbour, tagged with its size in words.
#[derive(Clone, Debug, PartialEq)]
pub struct Outgoing<M> {
    /// The neighbour the message is addressed to.
    pub to: VertexId,
    /// The payload.
    pub payload: M,
    /// Size of the payload in words (node ids / weights / counters).
    pub words: usize,
}

impl<M> Outgoing<M> {
    /// Convenience constructor for a one-word message.
    pub fn unit(to: VertexId, payload: M) -> Self {
        Self {
            to,
            payload,
            words: 1,
        }
    }

    /// Constructor with an explicit word count.
    pub fn sized(to: VertexId, payload: M, words: usize) -> Self {
        Self { to, payload, words }
    }
}

/// A message delivered to a node at the start of a round.
#[derive(Clone, Debug, PartialEq)]
pub struct Incoming<M> {
    /// The neighbour that sent the message in the previous round.
    pub from: VertexId,
    /// The payload.
    pub payload: M,
}

/// The synchronous round engine.
///
/// # Examples
///
/// Flood the smallest vertex id through a path graph:
///
/// ```
/// use ftspan_distributed::runtime::{Model, Network, Outgoing};
/// use ftspan_graph::generators;
///
/// let g = generators::path(5);
/// let mut net = Network::new(&g, Model::congest());
/// let mut best: Vec<u32> = (0..5).map(|v| v as u32).collect();
/// for _ in 0..5 {
///     net.round(|v, inbox| {
///         for msg in inbox {
///             best[v.index()] = best[v.index()].min(msg.payload);
///         }
///         let mine = best[v.index()];
///         g.neighbors(v).map(|(n, _)| Outgoing::unit(n, mine)).collect()
///     });
/// }
/// assert!(best.iter().all(|&b| b == 0));
/// assert_eq!(net.stats().rounds, 5);
/// ```
#[derive(Debug)]
pub struct Network<'g, M> {
    graph: &'g Graph,
    model: Model,
    inboxes: Vec<Vec<Incoming<M>>>,
    stats: RoundStats,
    violations: usize,
}

impl<'g, M: Clone> Network<'g, M> {
    /// Creates an engine over the given topology.
    #[must_use]
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        Self {
            graph,
            model,
            inboxes: vec![Vec::new(); graph.vertex_count()],
            stats: RoundStats::default(),
            violations: 0,
        }
    }

    /// The topology the network runs on.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The model being enforced.
    #[must_use]
    pub fn model(&self) -> Model {
        self.model
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RoundStats {
        self.stats
    }

    /// Number of (edge, round) slots whose traffic exceeded the CONGEST word
    /// budget. Zero for a model-conforming algorithm; always zero in LOCAL.
    #[must_use]
    pub fn congestion_violations(&self) -> usize {
        self.violations
    }

    /// Executes one synchronous round.
    ///
    /// The closure is called once per vertex (in increasing id order) with
    /// the messages delivered this round, and returns the messages to send;
    /// they are delivered at the start of the next round.
    ///
    /// # Panics
    ///
    /// Panics if a message is addressed to a non-neighbour (the models only
    /// allow communication along edges).
    // Generic, so instantiated where a simulation runs: the LOCAL and
    // CONGEST constructions and the padded decomposition's flood, whose cost
    // the `distributed.*` layer metrics time. `#[inline]` lets that codegen
    // unit inline the per-vertex step. Left to codegen-unit partitioning,
    // the inlining came and went with unrelated edits, and a flood-bound
    // build once moved by about 13 % with it.
    #[inline]
    pub fn round<F>(&mut self, mut node_step: F)
    where
        F: FnMut(VertexId, &[Incoming<M>]) -> Vec<Outgoing<M>>,
    {
        let n = self.graph.vertex_count();
        let mut next_inboxes: Vec<Vec<Incoming<M>>> = vec![Vec::new(); n];
        // Words sent over each directed edge slot this round: index 2e for the
        // lower-id endpoint sending towards the higher one, 2e + 1 otherwise.
        let mut edge_words: Vec<usize> = vec![0; 2 * self.graph.edge_count()];
        for v_idx in 0..n {
            let v = VertexId::new(v_idx);
            let outgoing = node_step(v, &self.inboxes[v_idx]);
            for msg in outgoing {
                let edge = self
                    .graph
                    .edge_between(v, msg.to)
                    .unwrap_or_else(|| panic!("{v} attempted to message non-neighbour {}", msg.to));
                let slot = 2 * edge.index() + usize::from(v > msg.to);
                edge_words[slot] += msg.words;
                self.stats.messages += 1;
                self.stats.words += msg.words;
                next_inboxes[msg.to.index()].push(Incoming {
                    from: v,
                    payload: msg.payload,
                });
            }
        }
        let round_max = edge_words.iter().copied().max().unwrap_or(0);
        self.stats.max_words_per_edge_round = self.stats.max_words_per_edge_round.max(round_max);
        if let Some(limit) = self.model.word_limit() {
            self.violations += edge_words.iter().filter(|&&w| w > limit).count();
        }
        self.inboxes = next_inboxes;
        self.stats.rounds += 1;
    }

    /// Runs rounds until `node_step` sends no messages at all, or `max_rounds`
    /// is reached. Returns the number of rounds executed in this call.
    // Inlined for the same reason as `round`: every simulation drives its
    // rounds through this loop, so it belongs in the caller's codegen unit.
    #[inline]
    pub fn run_until_quiet<F>(&mut self, max_rounds: usize, mut node_step: F) -> usize
    where
        F: FnMut(VertexId, &[Incoming<M>]) -> Vec<Outgoing<M>>,
    {
        let mut executed = 0;
        for _ in 0..max_rounds {
            let before = self.stats.messages;
            self.round(&mut node_step);
            executed += 1;
            if self.stats.messages == before {
                break;
            }
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generators, vid};

    #[test]
    fn flooding_reaches_everyone_in_diameter_rounds() {
        let g = generators::path(6);
        let mut net: Network<'_, u32> = Network::new(&g, Model::congest());
        let mut best: Vec<u32> = (0..6).map(|v| v as u32 + 10).collect();
        best[3] = 0; // the "source"
        for _ in 0..5 {
            net.round(|v, inbox| {
                for m in inbox {
                    best[v.index()] = best[v.index()].min(m.payload);
                }
                let mine = best[v.index()];
                g.neighbors(v)
                    .map(|(n, _)| Outgoing::unit(n, mine))
                    .collect()
            });
        }
        assert!(best.iter().all(|&b| b == 0));
        assert_eq!(net.stats().rounds, 5);
        assert_eq!(net.congestion_violations(), 0);
        assert_eq!(net.stats().max_words_per_edge_round, 1);
    }

    #[test]
    fn messages_to_non_neighbours_panic() {
        let g = generators::path(3);
        let mut net: Network<'_, u32> = Network::new(&g, Model::Local);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.round(|v, _| {
                if v == vid(0) {
                    vec![Outgoing::unit(vid(2), 1)]
                } else {
                    vec![]
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn congestion_violations_are_detected() {
        let g = generators::path(2);
        let mut net: Network<'_, u32> = Network::new(&g, Model::congest());
        net.round(|v, _| {
            if v == vid(0) {
                // A single 100-word message clearly exceeds the CONGEST budget.
                vec![Outgoing::sized(vid(1), 7, 100)]
            } else {
                vec![]
            }
        });
        assert_eq!(net.congestion_violations(), 1);
        assert_eq!(net.stats().max_words_per_edge_round, 100);
        // The same message is fine in LOCAL.
        let mut net: Network<'_, u32> = Network::new(&g, Model::Local);
        net.round(|v, _| {
            if v == vid(0) {
                vec![Outgoing::sized(vid(1), 7, 100)]
            } else {
                vec![]
            }
        });
        assert_eq!(net.congestion_violations(), 0);
    }

    #[test]
    fn run_until_quiet_stops_early() {
        let g = generators::path(4);
        let mut net: Network<'_, u32> = Network::new(&g, Model::Local);
        let mut sent = false;
        let executed = net.run_until_quiet(50, |v, _| {
            if v == vid(0) && !sent {
                sent = true;
                vec![Outgoing::unit(vid(1), 1)]
            } else {
                vec![]
            }
        });
        // Round 1 sends one message; round 2 sends nothing and stops.
        assert_eq!(executed, 2);
    }

    #[test]
    fn model_word_limits() {
        assert_eq!(Model::Local.word_limit(), None);
        assert_eq!(Model::congest().word_limit(), Some(3));
        assert_eq!(
            Model::Congest {
                words_per_message: 7
            }
            .word_limit(),
            Some(7)
        );
    }

    #[test]
    fn incoming_records_sender() {
        let g = generators::path(2);
        let mut net: Network<'_, &'static str> = Network::new(&g, Model::Local);
        let mut seen = Vec::new();
        net.round(|v, _| {
            if v == vid(0) {
                vec![Outgoing::unit(vid(1), "hello")]
            } else {
                vec![]
            }
        });
        net.round(|v, inbox| {
            if v == vid(1) {
                for m in inbox {
                    seen.push((m.from, m.payload));
                }
            }
            vec![]
        });
        assert_eq!(seen, vec![(vid(0), "hello")]);
    }
}
