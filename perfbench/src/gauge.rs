//! The machine-speed gauge.
//!
//! On a shared host the same operation takes up to a fifth longer or
//! shorter from one second to the next: neighbours change the clock speed,
//! the caches and the memory bandwidth left to the benchmark.  The gauge
//! times a fixed reference kernel beside the workload — a breadth-first
//! search over a fixed random graph built here, so no change to the crates
//! under test can change it — and the gated latencies are expressed in
//! multiples of its current time (unit `ref`).  A change that makes an
//! operation slower makes its `ref` figure larger by the same share; a host
//! that slows down slows both and leaves the figure in place.

use crate::stats::{cpu_time, median, Samples};
use std::collections::VecDeque;

/// Nodes and out-degree of the kernel's graph: about 2.5 MiB, a working set
/// of the size a session step or an index patch walks.
const NODES: usize = 1 << 17;
const DEGREE: usize = 2;
/// Kernel runs the current speed is the median of.
const WINDOW: usize = 15;

pub struct Gauge {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    seen: Vec<u64>,
    queue: Vec<u32>,
    window: VecDeque<f64>,
    /// Every kernel run's CPU time, in ms.
    pub runs: Samples,
}

impl Gauge {
    /// Builds the kernel's graph and fills the window.
    pub fn new() -> Self {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut gauge = Self {
            offsets: (0..=NODES).map(|i| (i * DEGREE) as u32).collect(),
            targets: (0..NODES * DEGREE)
                .map(|_| (next() % NODES as u64) as u32)
                .collect(),
            seen: vec![0; NODES / 64],
            queue: Vec::with_capacity(NODES),
            window: VecDeque::with_capacity(WINDOW),
            runs: Samples::default(),
        };
        for _ in 0..WINDOW {
            gauge.sample();
        }
        gauge
    }

    /// Runs the kernel once and returns the median CPU time, in ms, of the
    /// last `WINDOW` runs: the machine's speed at this moment.
    pub fn sample(&mut self) -> f64 {
        let started = cpu_time();
        std::hint::black_box(self.search());
        let ms = (cpu_time() - started).as_secs_f64() * 1e3;
        self.runs.push_ms(ms);
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(ms);
        median(self.window.make_contiguous())
    }

    /// Breadth-first search from node 0; returns the nodes reached.
    fn search(&mut self) -> usize {
        self.seen.fill(0);
        self.queue.clear();
        self.queue.push(0);
        self.seen[0] = 1;
        let mut head = 0;
        while let Some(&node) = self.queue.get(head) {
            head += 1;
            let node = node as usize;
            let edges = self.offsets[node] as usize..self.offsets[node + 1] as usize;
            for &target in &self.targets[edges] {
                let (word, bit) = (target as usize / 64, 1u64 << (target % 64));
                if self.seen[word] & bit == 0 {
                    self.seen[word] |= bit;
                    self.queue.push(target);
                }
            }
        }
        self.queue.len()
    }
}
