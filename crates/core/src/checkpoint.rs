//! Training checkpoints: atomic snapshots of everything an interrupted run
//! needs to continue *bit-identically* to an uninterrupted one.
//!
//! A [`TrainCheckpoint`] captures the epoch counter, the learned parameters,
//! Adam's moments and step count, the lr-backoff scale, the divergence-guard
//! accumulators and the partial loss history. Because the trainer derives
//! each epoch's RNG from `(seed, epoch)` (see `DESIGN.md`, "Fault
//! tolerance"), this epoch-boundary state is the *entire* state of a run —
//! restoring it and replaying the remaining epochs reproduces the
//! uninterrupted run exactly.
//!
//! Snapshots are written atomically: serialize to `<path>.tmp`, then
//! `rename` over the target. A crash mid-write leaves the previous snapshot
//! intact; a truncated or corrupted file is rejected by [`load`] with a
//! typed error, never a panic.
//!
//! The format is a line-oriented text file with every `f32` stored as raw
//! bit-pattern hex — decimal round-tripping must not be able to perturb a
//! single ULP, or resume determinism would silently break.

use std::fmt;
use std::fs;
use std::path::Path;
use stsm_tensor::codec;
use stsm_tensor::optim::AdamState;
use stsm_tensor::{ParamStore, Tensor};

/// Format version written to the first line of every snapshot.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be written, read or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error while reading or writing.
    Io(String),
    /// The file is not a checkpoint, is truncated, or fails to parse.
    Malformed(String),
    /// The file is a checkpoint of an unsupported format version.
    Version {
        /// Version this build writes and reads.
        expected: u32,
        /// Version found in the file.
        got: u32,
    },
    /// The checkpoint was taken under a different training configuration.
    ConfigMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Version { expected, got } => {
                write!(f, "checkpoint version {got} unsupported (this build reads {expected})")
            }
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint was written under a different training configuration")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Divergence-guard accumulators that survive epoch boundaries (and hence
/// must be checkpointed for exact resume).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GuardSnapshot {
    /// Exponential moving average of good batch losses.
    pub ema: f32,
    /// Number of good batches folded into `ema`.
    pub ema_count: u64,
    /// Batches whose optimizer step was skipped so far.
    pub skipped_batches: u64,
    /// Rollbacks to the last epoch-end snapshot performed so far.
    pub rollbacks: u64,
    /// Epochs that ended with zero usable batches.
    pub skipped_epochs: Vec<usize>,
}

/// Everything needed to resume training at an epoch boundary.
#[derive(Clone)]
pub struct TrainCheckpoint {
    /// Fingerprint of the training config (FNV-1a over its JSON form);
    /// resume refuses a checkpoint taken under a different config.
    pub config_fingerprint: u64,
    /// Epochs fully completed before this snapshot.
    pub epochs_done: usize,
    /// Learning-rate backoff scale accumulated by guard rollbacks.
    pub lr_scale: f32,
    /// Mean masked-similarity accumulator (Table 8 numerator).
    pub sim_used: f32,
    /// Random-draw similarity accumulator (Table 8 denominator).
    pub sim_random: f32,
    /// Mean loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Divergence-guard accumulators.
    pub guard: GuardSnapshot,
    /// Learned parameters at the epoch boundary.
    pub params: ParamStore,
    /// Adam moments and step count at the epoch boundary.
    pub adam: AdamState,
}

impl fmt::Debug for TrainCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainCheckpoint")
            .field("config_fingerprint", &self.config_fingerprint)
            .field("epochs_done", &self.epochs_done)
            .field("lr_scale", &self.lr_scale)
            .field("epoch_losses", &self.epoch_losses)
            .field("guard", &self.guard)
            .field("params", &self.params.len())
            .finish_non_exhaustive()
    }
}

/// FNV-1a fingerprint of a config's canonical JSON form.
pub fn config_fingerprint(cfg_json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cfg_json.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// The bit-exact f32 token codec lives in `stsm_tensor::codec` (shared with
// the model-JSON serializer); these thin wrappers keep the checkpoint's
// historical call shape and error type.

fn push_f32s(out: &mut String, values: &[f32]) {
    codec::push_f32_bits(out, values);
}

fn parse_f32s(fields: &[&str]) -> Result<Vec<f32>, CheckpointError> {
    codec::parse_f32_bits(fields).map_err(|e| CheckpointError::Malformed(e.to_string()))
}

fn parse_num<T: std::str::FromStr>(field: &str, what: &str) -> Result<T, CheckpointError> {
    field.parse().map_err(|_| CheckpointError::Malformed(format!("bad {what} '{field}'")))
}

impl TrainCheckpoint {
    /// This checkpoint as a [`CheckpointRef`] over its own fields.
    pub(crate) fn borrowed(&self) -> CheckpointRef<'_> {
        CheckpointRef {
            config_fingerprint: self.config_fingerprint,
            epochs_done: self.epochs_done,
            lr_scale: self.lr_scale,
            sim_used: self.sim_used,
            sim_random: self.sim_random,
            epoch_losses: &self.epoch_losses,
            guard: self.guard.clone(),
            params: &self.params,
            adam: &self.adam,
        }
    }

    /// Serializes the checkpoint to its line-oriented text form.
    pub fn to_text(&self) -> String {
        self.borrowed().to_text()
    }

    /// Parses [`TrainCheckpoint::to_text`] output, rejecting anything
    /// truncated, garbled or of the wrong version.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| CheckpointError::Malformed(format!("truncated before {what} line")))
        };
        let header = next("header")?;
        let version = match header.strip_prefix("STSM-CKPT ") {
            Some(v) => parse_num::<u32>(v, "version")?,
            None => return Err(CheckpointError::Malformed("missing STSM-CKPT header".into())),
        };
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { expected: CHECKPOINT_VERSION, got: version });
        }
        let fp_line = next("fingerprint")?;
        let fp = fp_line
            .strip_prefix("fingerprint ")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| CheckpointError::Malformed("bad fingerprint line".into()))?;
        let epochs_done: usize = match next("epochs_done")?.strip_prefix("epochs_done ") {
            Some(v) => parse_num(v, "epochs_done")?,
            None => return Err(CheckpointError::Malformed("bad epochs_done line".into())),
        };
        let lr_scale = match next("lr_scale")?.strip_prefix("lr_scale ") {
            Some(v) => parse_f32s(&[v])?[0],
            None => return Err(CheckpointError::Malformed("bad lr_scale line".into())),
        };
        let sim_line = next("sim")?;
        let sim_fields: Vec<&str> =
            sim_line.strip_prefix("sim ").unwrap_or("").split_whitespace().collect();
        if sim_fields.len() != 2 {
            return Err(CheckpointError::Malformed("bad sim line".into()));
        }
        let sims = parse_f32s(&sim_fields)?;
        let guard_line = next("guard")?;
        let gf: Vec<&str> =
            guard_line.strip_prefix("guard ").unwrap_or("").split_whitespace().collect();
        if gf.len() != 4 {
            return Err(CheckpointError::Malformed("bad guard line".into()));
        }
        let mut guard = GuardSnapshot {
            ema: parse_f32s(&gf[..1])?[0],
            ema_count: parse_num(gf[1], "ema_count")?,
            skipped_batches: parse_num(gf[2], "skipped_batches")?,
            rollbacks: parse_num(gf[3], "rollbacks")?,
            skipped_epochs: Vec::new(),
        };
        let se_line = next("skipped_epochs")?;
        let se = se_line
            .strip_prefix("skipped_epochs")
            .ok_or_else(|| CheckpointError::Malformed("bad skipped_epochs line".into()))?;
        for f in se.split_whitespace() {
            guard.skipped_epochs.push(parse_num(f, "skipped epoch")?);
        }
        let el_line = next("epoch_losses")?;
        let el = el_line
            .strip_prefix("epoch_losses")
            .ok_or_else(|| CheckpointError::Malformed("bad epoch_losses line".into()))?;
        let epoch_losses = parse_f32s(&el.split_whitespace().collect::<Vec<_>>())?;
        let n_params: usize = match next("params")?.strip_prefix("params ") {
            Some(v) => parse_num(v, "param count")?,
            None => return Err(CheckpointError::Malformed("bad params line".into())),
        };
        let mut params = ParamStore::new();
        for i in 0..n_params {
            let line = next("parameter")?;
            let mut fields = line.split_whitespace();
            let name = fields
                .next()
                .ok_or_else(|| CheckpointError::Malformed(format!("empty parameter line {i}")))?;
            let dims_str = fields.next().ok_or_else(|| {
                CheckpointError::Malformed(format!("parameter '{name}' missing shape"))
            })?;
            let dims: Vec<usize> =
                dims_str.split(',').map(|d| parse_num(d, "shape dim")).collect::<Result<_, _>>()?;
            let data = parse_f32s(&fields.collect::<Vec<_>>())?;
            if data.len() != dims.iter().product::<usize>() {
                return Err(CheckpointError::Malformed(format!(
                    "parameter '{name}': shape {dims:?} needs {} scalars, found {}",
                    dims.iter().product::<usize>(),
                    data.len()
                )));
            }
            params.register(name, Tensor::from_vec(dims, data));
        }
        let adam_t: u64 = match next("adam_t")?.strip_prefix("adam_t ") {
            Some(v) => parse_num(v, "adam_t")?,
            None => return Err(CheckpointError::Malformed("bad adam_t line".into())),
        };
        let mut tables: Vec<Vec<Vec<f32>>> = Vec::with_capacity(2);
        for label in ["adam_m", "adam_v"] {
            let count: usize = match next(label)?.strip_prefix(&format!("{label} ")) {
                Some(v) => parse_num(v, "moment table size")?,
                None => return Err(CheckpointError::Malformed(format!("bad {label} line"))),
            };
            let mut table = Vec::with_capacity(count);
            for _ in 0..count {
                let line = next("moment slot")?;
                if line == "-" {
                    table.push(Vec::new());
                } else if let Some(rest) = line.strip_prefix('+') {
                    table.push(parse_f32s(&rest.split_whitespace().collect::<Vec<_>>())?);
                } else {
                    return Err(CheckpointError::Malformed("bad moment slot line".into()));
                }
            }
            tables.push(table);
        }
        let adam_v = tables.pop().expect("two tables");
        let adam_m = tables.pop().expect("two tables");
        if next("end")? != "end" {
            return Err(CheckpointError::Malformed("missing end marker (truncated?)".into()));
        }
        Ok(TrainCheckpoint {
            config_fingerprint: fp,
            epochs_done,
            lr_scale,
            sim_used: sims[0],
            sim_random: sims[1],
            epoch_losses,
            guard,
            params,
            adam: AdamState { t: adam_t, m: adam_m, v: adam_v },
        })
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp`, then rename
    /// over `path`. A crash mid-write never destroys the previous snapshot.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        self.borrowed().save_atomic(path)
    }

    /// Loads and parses a snapshot written by [`TrainCheckpoint::save_atomic`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_text(&text)
    }
}

/// A [`TrainCheckpoint`] that borrows its bulky parts — the parameters, the
/// Adam moments and the loss history — so a trainer can write its
/// epoch-boundary state without copying them first. It serializes to the
/// same bytes as the owned checkpoint it mirrors.
pub(crate) struct CheckpointRef<'a> {
    pub config_fingerprint: u64,
    pub epochs_done: usize,
    pub lr_scale: f32,
    pub sim_used: f32,
    pub sim_random: f32,
    pub epoch_losses: &'a [f32],
    pub guard: GuardSnapshot,
    pub params: &'a ParamStore,
    pub adam: &'a AdamState,
}

impl CheckpointRef<'_> {
    /// An owned copy, the value [`TrainCheckpoint::load`] would return.
    pub(crate) fn to_checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            config_fingerprint: self.config_fingerprint,
            epochs_done: self.epochs_done,
            lr_scale: self.lr_scale,
            sim_used: self.sim_used,
            sim_random: self.sim_random,
            epoch_losses: self.epoch_losses.to_vec(),
            guard: self.guard.clone(),
            params: self.params.clone(),
            adam: self.adam.clone(),
        }
    }

    /// [`TrainCheckpoint::to_text`].
    pub(crate) fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("STSM-CKPT {CHECKPOINT_VERSION}\n"));
        s.push_str(&format!("fingerprint {:016x}\n", self.config_fingerprint));
        s.push_str(&format!("epochs_done {}\n", self.epochs_done));
        s.push_str(&format!("lr_scale {:08x}\n", self.lr_scale.to_bits()));
        s.push_str(&format!(
            "sim {:08x} {:08x}\n",
            self.sim_used.to_bits(),
            self.sim_random.to_bits()
        ));
        s.push_str(&format!(
            "guard {:08x} {} {} {}\n",
            self.guard.ema.to_bits(),
            self.guard.ema_count,
            self.guard.skipped_batches,
            self.guard.rollbacks
        ));
        s.push_str("skipped_epochs");
        for e in &self.guard.skipped_epochs {
            s.push_str(&format!(" {e}"));
        }
        s.push('\n');
        s.push_str("epoch_losses");
        push_f32s(&mut s, self.epoch_losses);
        s.push('\n');
        s.push_str(&format!("params {}\n", self.params.len()));
        for (_, name, value) in self.params.iter() {
            let dims: Vec<String> = value.shape().dims().iter().map(|d| d.to_string()).collect();
            s.push_str(&format!("{name} {}", dims.join(",")));
            push_f32s(&mut s, value.data());
            s.push('\n');
        }
        s.push_str(&format!("adam_t {}\n", self.adam.t));
        for (label, table) in [("adam_m", &self.adam.m), ("adam_v", &self.adam.v)] {
            s.push_str(&format!("{label} {}\n", table.len()));
            for slot in table {
                s.push_str(if slot.is_empty() { "-" } else { "+" });
                push_f32s(&mut s, slot);
                s.push('\n');
            }
        }
        s.push_str("end\n");
        s
    }

    /// [`TrainCheckpoint::save_atomic`]: the text goes to `<path>.tmp`,
    /// which is then renamed over `path`.
    pub(crate) fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text())
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        let mut params = ParamStore::new();
        params.register("w", Tensor::from_vec([2, 2], vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0]));
        params.register("b", Tensor::from_vec([2], vec![0.1, -0.0]));
        TrainCheckpoint {
            config_fingerprint: 0xdead_beef_1234_5678,
            epochs_done: 3,
            lr_scale: 0.25,
            sim_used: 1.25,
            sim_random: 0.75,
            epoch_losses: vec![2.0, 1.0, 0.5],
            guard: GuardSnapshot {
                ema: 0.6,
                ema_count: 12,
                skipped_batches: 2,
                rollbacks: 1,
                skipped_epochs: vec![1],
            },
            params,
            adam: AdamState {
                t: 9,
                m: vec![vec![0.1, 0.2, 0.3, 0.4], Vec::new()],
                v: vec![vec![0.5, 0.6, 0.7, 0.8], Vec::new()],
            },
        }
    }

    #[test]
    fn text_roundtrip_is_bit_exact() {
        let ck = sample();
        let restored = TrainCheckpoint::from_text(&ck.to_text()).expect("roundtrip");
        assert_eq!(restored.config_fingerprint, ck.config_fingerprint);
        assert_eq!(restored.epochs_done, 3);
        assert_eq!(restored.lr_scale.to_bits(), ck.lr_scale.to_bits());
        assert_eq!(restored.guard, ck.guard);
        assert_eq!(restored.adam, ck.adam);
        assert_eq!(restored.params.len(), 2);
        for (id, name, value) in ck.params.iter() {
            assert_eq!(restored.params.name(id), name);
            let r = restored.params.get(id);
            assert_eq!(r.shape(), value.shape());
            for (a, b) in r.data().iter().zip(value.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter '{name}' perturbed");
            }
        }
        let losses: Vec<u32> = restored.epoch_losses.iter().map(|l| l.to_bits()).collect();
        let expect: Vec<u32> = ck.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(losses, expect);
    }

    #[test]
    fn atomic_save_load() {
        let dir = std::env::temp_dir().join("stsm_ckpt_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ckpt");
        let ck = sample();
        ck.save_atomic(&path).expect("save");
        assert!(!path.with_extension("tmp").exists(), "tmp file must be renamed away");
        let loaded = TrainCheckpoint::load(&path).expect("load");
        assert_eq!(loaded.epochs_done, ck.epochs_done);
        // Overwrite in place — rename replaces the old snapshot.
        let mut ck2 = sample();
        ck2.epochs_done = 4;
        ck2.save_atomic(&path).expect("second save");
        assert_eq!(TrainCheckpoint::load(&path).unwrap().epochs_done, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage_truncation_and_versions() {
        // Garbage.
        let err = TrainCheckpoint::from_text("not a checkpoint at all").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        // Empty.
        assert!(matches!(
            TrainCheckpoint::from_text("").unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        // Future version.
        let err = TrainCheckpoint::from_text("STSM-CKPT 99\n").unwrap_err();
        assert_eq!(err, CheckpointError::Version { expected: CHECKPOINT_VERSION, got: 99 });
        // Truncation at every line boundary must be caught (the end marker
        // protects the final line).
        let full = sample().to_text();
        let lines: Vec<&str> = full.lines().collect();
        for cut in 0..lines.len() {
            let partial = lines[..cut].join("\n");
            assert!(
                TrainCheckpoint::from_text(&partial).is_err(),
                "truncation after {cut} lines must be rejected"
            );
        }
        // Corrupted float bits.
        let corrupted = full.replace("epoch_losses ", "epoch_losses zzzzzzzz ");
        assert!(matches!(
            TrainCheckpoint::from_text(&corrupted).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        // Missing file.
        let err = TrainCheckpoint::load(Path::new("/nonexistent/stsm.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = config_fingerprint("{\"lr\":0.01}");
        let b = config_fingerprint("{\"lr\":0.02}");
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint("{\"lr\":0.01}"));
    }
}
