//! Output checks. Every replay is checked; any failure makes the run
//! report `"correct": false` and exit non-zero.

use std::collections::HashMap;

use safex_nn::Engine;
use safex_serve::{Outcome, ServeReport, ServerSnapshot};

use crate::rig::Prepared;

/// `replay_digest` pinned per `(workload, seed)`. Seeds outside the
/// table are checked for self-consistency only; `--pin <from> <to>`
/// prints the rows for a seed range.
const PINNED: &[(&str, u64, u64)] = &include!("pinned.in");

/// Collects check failures for one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Every arrival id has exactly one response.
    pub fn conservation(&mut self, p: &Prepared, report: &ServeReport) {
        let n = p.trace.len();
        let mut seen = vec![0u32; n];
        for r in &report.responses {
            match seen.get_mut(r.id as usize) {
                Some(count) => *count += 1,
                None => self.fail(format!("response for unknown request id {}", r.id)),
            }
        }
        let missing = seen.iter().filter(|&&c| c == 0).count();
        let doubled = seen.iter().filter(|&&c| c > 1).count();
        if missing > 0 || doubled > 0 {
            self.fail(format!(
                "conservation: {missing} of {n} requests without a response, {doubled} with several"
            ));
        }
    }

    /// No unflagged completed answer disagrees with a pristine engine.
    pub fn answers(&mut self, p: &Prepared, report: &ServeReport) {
        let mut engine = Engine::new(p.pristine.clone());
        let mut memo: HashMap<Vec<u32>, (usize, u32)> = HashMap::new();
        let mut wrong = 0usize;
        for r in &report.responses {
            let Outcome::Completed {
                class,
                confidence,
                flagged: false,
                ..
            } = r.outcome
            else {
                continue;
            };
            let input = &p.trace.arrivals()[r.id as usize].request.input;
            let key: Vec<u32> = input.iter().map(|x| x.to_bits()).collect();
            let expected = *memo.entry(key).or_insert_with(|| {
                let c = engine.classify(input).expect("pristine classify");
                (c.class, c.confidence.to_bits())
            });
            if expected != (class, confidence.to_bits()) {
                wrong += 1;
            }
        }
        if wrong > 0 {
            self.fail(format!(
                "{wrong} unflagged completed answers disagree with the pristine engine"
            ));
        }
    }

    /// A replay's report is byte-for-byte the reference report.
    pub fn same(&mut self, what: &str, report: &ServeReport, reference: &ServeReport) {
        if report != reference {
            self.fail(format!(
                "{what}: report differs from the reference (digest {:016x} vs {:016x})",
                report.replay_digest(),
                reference.replay_digest()
            ));
        }
    }

    /// The reference digest matches the pinned one, when the seed is pinned.
    pub fn pinned(&mut self, p: &Prepared, report: &ServeReport) {
        let digest = report.replay_digest();
        if let Some(&(_, _, want)) = PINNED
            .iter()
            .find(|(w, s, _)| *w == p.spec.name && *s == p.seed)
        {
            if digest != want {
                self.fail(format!(
                    "replay digest {digest:016x} differs from the pinned {want:016x}"
                ));
            }
        }
    }

    /// A captured snapshot decodes and re-encodes to the same bytes.
    pub fn snapshot(&mut self, bytes: &[u8]) {
        match ServerSnapshot::decode(bytes) {
            Ok(snap) if snap.encode() == bytes => {}
            Ok(_) => self.fail("snapshot re-encodes to different bytes".into()),
            Err(e) => self.fail(format!("captured snapshot does not decode: {e}")),
        }
    }
}
