//! Output check: every request is accounted for, and every delivered
//! logits vector equals, bitwise, a reference computed outside the timed
//! window by `batched_sliced_forward` at the rate the response reports, on
//! weights from the same seed.
//!
//! A row's logits do not depend on its batch companions or its position
//! in the batch, but they do depend on the batch *size*: `matmul::gemm`
//! takes an unblocked path when `m·n·k` is small and the packed path
//! otherwise, and the two sum in different orders. The client does not
//! see the batch size a server chose, so the reference of a request is
//! its row at each batch-size regime the kernels distinguish (found by
//! probing, see [`Oracle`]), the single-row result first. A response
//! passes when it equals one of them bitwise.

use crate::metrics::Metrics;
use ms_core::inference::batched_sliced_forward;
use ms_core::SliceRate;
use ms_nn::Layer;
use ms_tensor::Tensor;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Pending,
    /// Logits at `offset` in the flat logit buffer.
    Delivered {
        rate: f32,
        offset: usize,
    },
    Shed,
}

/// Per-request settlement ledger for one pass.
pub struct Ledger {
    classes: usize,
    input_of: Vec<u16>,
    state: Vec<State>,
    logits: Vec<f32>,
    /// Responses for unknown ids, repeated ids or with wrong-shaped logits.
    rogue: u64,
}

/// Accounting and correctness verdict of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub sent: u64,
    pub delivered: u64,
    pub shed: u64,
    pub lost: u64,
    pub mismatched: u64,
}

impl Verdict {
    /// Every id settled exactly once and every logit matched.
    pub fn ok(&self) -> bool {
        self.sent == self.delivered + self.shed + self.lost
            && self.lost == 0
            && self.mismatched == 0
    }

    /// The `loadgen.*` accounting metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("loadgen.sent", self.sent as f64, "count");
        m.set("loadgen.delivered", self.delivered as f64, "count");
        m.set("loadgen.shed", self.shed as f64, "count");
        m.set("loadgen.lost", self.lost as f64, "count");
        m.set("loadgen.mismatched", self.mismatched as f64, "count");
    }
}

impl Ledger {
    /// A ledger for requests `0..input_of.len()`, request `i` carrying
    /// input `input_of[i]`.
    pub fn new(classes: usize, input_of: Vec<u16>) -> Ledger {
        let n = input_of.len();
        Ledger {
            classes,
            input_of,
            state: vec![State::Pending; n],
            logits: Vec::with_capacity(n * classes),
            rogue: 0,
        }
    }

    /// Records a delivered response. Returns false (and counts a
    /// mismatch) when the id is unknown or already settled, or the logits
    /// have the wrong width.
    pub fn deliver(&mut self, id: u64, rate: f32, logits: &[f32]) -> bool {
        let Some(slot) = self.pending_slot(id) else {
            self.rogue += 1;
            return false;
        };
        if logits.len() != self.classes {
            self.rogue += 1;
            self.state[slot] = State::Shed;
            return false;
        }
        self.state[slot] = State::Delivered {
            rate,
            offset: self.logits.len(),
        };
        self.logits.extend_from_slice(logits);
        true
    }

    /// Records a shed response.
    pub fn shed(&mut self, id: u64) -> bool {
        match self.pending_slot(id) {
            Some(slot) => {
                self.state[slot] = State::Shed;
                true
            }
            None => {
                self.rogue += 1;
                false
            }
        }
    }

    fn pending_slot(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id).ok()?;
        (self.state.get(i) == Some(&State::Pending)).then_some(i)
    }

    /// Checks every delivered response with `matches(input, rate, logits)`.
    pub fn verify(&self, mut matches: impl FnMut(u16, f32, &[f32]) -> bool) -> Verdict {
        let mut v = Verdict {
            sent: self.state.len() as u64,
            mismatched: self.rogue,
            ..Verdict::default()
        };
        for (i, st) in self.state.iter().enumerate() {
            match *st {
                State::Pending => v.lost += 1,
                State::Shed => v.shed += 1,
                State::Delivered { rate, offset } => {
                    v.delivered += 1;
                    let got = &self.logits[offset..offset + self.classes];
                    if !matches(self.input_of[i], rate, got) {
                        v.mismatched += 1;
                    }
                }
            }
        }
        v
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest batch size probed for regime changes. Beyond it, every layer
/// with at least 8 MACs per row is on the packed path.
const MAX_PROBE_BATCH: usize = 1024;
/// Inputs whose rows form a regime signature.
const PROBE_ROWS: usize = 8;

/// Reference logits of `inputs` under one model, at every batch-size
/// regime.
pub struct Oracle<'a> {
    net: &'a mut dyn Layer,
    inputs: &'a [Tensor],
    /// Per rate (bits): one batch size from each regime, ascending.
    regimes: HashMap<u32, Vec<usize>>,
    memo: HashMap<(u16, u32, usize), Vec<f32>>,
    /// Responses that matched the single-row result / only a larger
    /// batch-size regime.
    pub single_row: u64,
    pub batched_only: u64,
}

impl<'a> Oracle<'a> {
    pub fn new(net: &'a mut dyn Layer, inputs: &'a [Tensor]) -> Oracle<'a> {
        assert!(!inputs.is_empty());
        Oracle {
            net,
            inputs,
            regimes: HashMap::new(),
            memo: HashMap::new(),
            single_row: 0,
            batched_only: 0,
        }
    }

    /// Whether `got` equals the reference of `input` at `rate` under some
    /// batch-size regime.
    pub fn matches(&mut self, input: u16, rate: f32, got: &[f32]) -> bool {
        if !(rate > 0.0 && rate <= 1.0) || input as usize >= self.inputs.len() {
            return false;
        }
        for m in self.regimes(rate) {
            let key = (input, rate.to_bits(), m);
            if !self.memo.contains_key(&key) {
                let row = self.rows(&[input as usize], m, rate).remove(0);
                self.memo.insert(key, row);
            }
            if same_bits(&self.memo[&key], got) {
                if m == 1 {
                    self.single_row += 1;
                } else {
                    self.batched_only += 1;
                }
                return true;
            }
        }
        false
    }

    /// Logits of `rows` (input indices) when each sits in a batch of `m`
    /// (filled up with other inputs).
    fn rows(&mut self, rows: &[usize], m: usize, rate: f32) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(m) {
            let batch: Vec<Tensor> = (0..m)
                .map(|j| {
                    let i = chunk.get(j).copied().unwrap_or(j % self.inputs.len());
                    self.inputs[i].clone()
                })
                .collect();
            let y = batched_sliced_forward(self.net, &batch, SliceRate::new(rate));
            out.extend(y.iter().take(chunk.len()).map(|t| t.data().to_vec()));
        }
        out
    }

    fn signature(&mut self, m: usize, rate: f32) -> Vec<u32> {
        let probes: Vec<usize> = (0..PROBE_ROWS.min(self.inputs.len())).collect();
        self.rows(&probes, m, rate)
            .iter()
            .flat_map(|r| r.iter().map(|v| v.to_bits()))
            .collect()
    }

    /// One batch size per regime: 1, then every size at which the probe
    /// rows' logits change. Each layer switches kernel path once as the
    /// batch grows, so equal signatures at both ends of an interval mean
    /// no switch inside it; unequal ones are bisected.
    fn regimes(&mut self, rate: f32) -> Vec<usize> {
        if let Some(r) = self.regimes.get(&rate.to_bits()) {
            return r.clone();
        }
        let mut found = vec![1];
        let mut lo = (1, self.signature(1, rate));
        let mut m = 2;
        while m <= MAX_PROBE_BATCH {
            let hi = (m, self.signature(m, rate));
            self.bisect(lo.clone(), hi.clone(), rate, &mut found);
            lo = hi;
            m *= 2;
        }
        found.sort_unstable();
        self.regimes.insert(rate.to_bits(), found.clone());
        found
    }

    fn bisect(
        &mut self,
        lo: (usize, Vec<u32>),
        hi: (usize, Vec<u32>),
        rate: f32,
        found: &mut Vec<usize>,
    ) {
        if lo.1 == hi.1 {
            return;
        }
        if hi.0 == lo.0 + 1 {
            found.push(hi.0);
            return;
        }
        let mid = (lo.0 + hi.0) / 2;
        let mid = (mid, self.signature(mid, rate));
        self.bisect(lo, mid.clone(), rate, found);
        self.bisect(mid, hi, rate, found);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_models::mlp::{Mlp, MlpConfig};
    use ms_tensor::SeededRng;

    fn setup() -> (Mlp, Vec<Tensor>) {
        let cfg = MlpConfig {
            input_dim: 8,
            hidden_dims: vec![32],
            num_classes: 4,
            groups: 4,
            dropout: 0.0,
            input_rescale: true,
        };
        let net = Mlp::new(&cfg, &mut SeededRng::new(17));
        let inputs = crate::models::random_inputs(&[8], 70, 5);
        (net, inputs)
    }

    fn single(net: &mut Mlp, input: &Tensor, rate: f32) -> Vec<f32> {
        batched_sliced_forward(net, std::slice::from_ref(input), SliceRate::new(rate))[0]
            .data()
            .to_vec()
    }

    fn check(ledger: &Ledger, inputs: &[Tensor]) -> Verdict {
        let (mut net, _) = setup();
        let mut oracle = Oracle::new(&mut net, inputs);
        ledger.verify(|i, r, got| oracle.matches(i, r, got))
    }

    fn served(net: &mut Mlp, inputs: &[Tensor]) -> Ledger {
        let mut ledger = Ledger::new(4, vec![0, 1, 2, 1]);
        for id in 0..4u64 {
            let rate = if id % 2 == 0 { 1.0 } else { 0.5 };
            let logits = single(net, &inputs[[0, 1, 2, 1][id as usize]], rate);
            assert!(ledger.deliver(id, rate, &logits));
        }
        ledger
    }

    #[test]
    fn honest_responses_pass() {
        let (mut net, inputs) = setup();
        let ledger = served(&mut net, &inputs);
        let v = check(&ledger, &inputs);
        assert!(v.ok(), "{v:?}");
        assert_eq!(v.delivered, 4);
    }

    #[test]
    fn rows_served_in_a_large_batch_pass() {
        // At batch 64 the small model's GEMMs take the packed path, whose
        // rows differ in the last bits from the single-row result.
        let (mut net, inputs) = setup();
        let outs = batched_sliced_forward(&mut net, &inputs[..64], SliceRate::new(1.0));
        let mut ledger = Ledger::new(4, (0..64).collect());
        let mut differs = 0;
        for (i, y) in outs.iter().enumerate() {
            ledger.deliver(i as u64, 1.0, y.data());
            differs += !same_bits(y.data(), &single(&mut net, &inputs[i], 1.0)) as usize;
        }
        assert!(differs > 0, "batch-size regimes no longer differ");
        let v = check(&ledger, &inputs);
        assert!(v.ok(), "{v:?}");
    }

    #[test]
    fn corrupted_logit_is_caught() {
        let (mut net, inputs) = setup();
        let mut ledger = served(&mut net, &inputs);
        // Flip the lowest mantissa bit of one logit of request 2.
        let offset = 2 * 4 + 1;
        ledger.logits[offset] = f32::from_bits(ledger.logits[offset].to_bits() ^ 1);
        let v = check(&ledger, &inputs);
        assert_eq!(v.mismatched, 1);
        assert!(!v.ok());
    }

    #[test]
    fn wrong_rate_label_is_caught() {
        let (mut net, inputs) = setup();
        let mut ledger = Ledger::new(4, vec![0]);
        ledger.deliver(0, 0.75, &single(&mut net, &inputs[0], 1.0));
        assert_eq!(check(&ledger, &inputs).mismatched, 1);
    }

    #[test]
    fn dropped_id_is_caught() {
        let (mut net, inputs) = setup();
        let mut ledger = Ledger::new(4, vec![0, 1, 2]);
        ledger.deliver(0, 1.0, &single(&mut net, &inputs[0], 1.0));
        ledger.shed(1);
        // Request 2 never settles.
        let v = check(&ledger, &inputs);
        assert_eq!((v.sent, v.delivered, v.shed, v.lost), (3, 1, 1, 1));
        assert!(!v.ok());
    }

    #[test]
    fn duplicate_and_unknown_ids_are_caught() {
        let (mut net, inputs) = setup();
        let mut ledger = Ledger::new(4, vec![0]);
        let logits = single(&mut net, &inputs[0], 1.0);
        assert!(ledger.deliver(0, 1.0, &logits));
        assert!(!ledger.deliver(0, 1.0, &logits));
        assert!(!ledger.shed(9));
        assert_eq!(check(&ledger, &inputs).mismatched, 2);
    }
}
