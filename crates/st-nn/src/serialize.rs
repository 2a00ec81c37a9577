//! Model checkpointing: save/load a [`Module`]'s state as JSON.
//!
//! A [`CheckpointV2`] carries model parameters *and* non-trainable buffers
//! (batch-norm running statistics), optional Adam optimizer state, and an
//! optional training-progress record (epoch/step counters, RNG state,
//! LR-backoff bookkeeping). Tensor data is stored as hexadecimal IEEE-754
//! bit patterns, so a save/load round trip is bit-identical — including
//! negative zeros and denormals that a decimal float path would mangle.
//! The file is a header line (format tag, version, FNV-1a checksum of the
//! payload) followed by the payload JSON; loads verify the checksum before
//! parsing, so truncated or corrupted files are rejected with a typed error
//! instead of half-loading. The training loop's crash-safe checkpoints and
//! the CLI's model files are both this format.
//!
//! All writes are atomic: tmp file in the destination directory, `fsync`,
//! rename over the target, directory `fsync`. A crash mid-write leaves
//! either the old checkpoint or a stray `.tmp` — never a torn target file.
//!
//! Loads are strict: any version, name, shape, or checksum mismatch is a
//! [`CheckpointError`], so checkpoints can never silently half-load.

use std::fmt;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use st_tensor::optim::AdamState;
use st_tensor::Array;

use crate::module::Module;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Typed checkpoint failure. Every load/restore error path reports one of
/// these — nothing in the checkpoint stack panics on bad input.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open/read/write/rename).
    Io(io::Error),
    /// The file is not parseable as the expected JSON structure.
    Parse(String),
    /// The file's format version is not one this build can read.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version(s) this build supports.
        expected: u32,
    },
    /// The payload bytes do not match the header checksum (torn write,
    /// truncation, or bit corruption).
    Checksum {
        /// Checksum recorded in the header.
        expected: String,
        /// Checksum of the payload actually on disk.
        actual: String,
    },
    /// An entry list has the wrong length for the target module.
    Count {
        /// What was being counted (e.g. "param", "buffer").
        what: &'static str,
        /// Entries the module expects.
        expected: usize,
        /// Entries the checkpoint holds.
        found: usize,
    },
    /// A parameter/buffer name does not match the module's canonical order.
    Name {
        /// Name the module expects at this position.
        expected: String,
        /// Name found in the checkpoint.
        found: String,
    },
    /// A tensor's shape does not match the module's.
    Shape {
        /// Offending entry name.
        name: String,
        /// Shape the module expects.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
    /// Structurally invalid content (bad hex encoding, missing header, …).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (expected {expected})"
                )
            }
            CheckpointError::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected}, payload hashes to {actual}"
            ),
            CheckpointError::Count {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint has {found} {what} entries, module expects {expected}"
            ),
            CheckpointError::Name { expected, found } => {
                write!(
                    f,
                    "checkpoint entry order mismatch: expected `{expected}`, found `{found}`"
                )
            }
            CheckpointError::Shape {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for `{name}`: module {expected:?}, checkpoint {found:?}"
            ),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Parse(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// v2: full training checkpoint (bit-exact tensors, checksum, atomic writes)
// ---------------------------------------------------------------------------

/// One serialized tensor (v2): data as concatenated 8-hex-digit IEEE-754
/// bit patterns, which round-trip every f32 bit pattern exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TensorRecord {
    /// Entry name ("" for anonymous tensors such as optimizer moments).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Hex-encoded f32 bit patterns, 8 chars per element.
    pub bits: String,
}

impl TensorRecord {
    /// Encode a named array.
    pub fn from_array(name: &str, a: &Array) -> Self {
        Self {
            name: name.to_string(),
            shape: a.shape().to_vec(),
            bits: encode_f32_bits(a.data()),
        }
    }

    /// Decode back into an array, validating length against the shape.
    pub fn to_array(&self) -> Result<Array, CheckpointError> {
        let data = decode_f32_bits(&self.bits)?;
        let expect: usize = self.shape.iter().product();
        if data.len() != expect {
            return Err(CheckpointError::Corrupt(format!(
                "tensor `{}`: shape {:?} wants {expect} elements, data has {}",
                self.name,
                self.shape,
                data.len()
            )));
        }
        Ok(Array::from_vec(&self.shape, data))
    }
}

/// Serialized Adam optimizer state (v2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptStateRecord {
    /// Optimizer algorithm tag (currently always `"adam"`).
    pub algo: String,
    /// Steps taken.
    pub t: u64,
    /// Learning rate at checkpoint time.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// First-moment estimates in parameter order.
    pub m: Vec<TensorRecord>,
    /// Second-moment estimates in parameter order.
    pub v: Vec<TensorRecord>,
}

impl OptStateRecord {
    /// Encode an [`AdamState`].
    pub fn from_adam(s: &AdamState) -> Self {
        let enc = |arrs: &[Array]| {
            arrs.iter()
                .map(|a| TensorRecord::from_array("", a))
                .collect()
        };
        Self {
            algo: "adam".to_string(),
            t: s.t,
            lr: s.lr,
            beta1: s.beta1,
            beta2: s.beta2,
            eps: s.eps,
            m: enc(&s.m),
            v: enc(&s.v),
        }
    }

    /// Decode into an [`AdamState`].
    pub fn to_adam(&self) -> Result<AdamState, CheckpointError> {
        if self.algo != "adam" {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported optimizer algo `{}`",
                self.algo
            )));
        }
        let dec = |recs: &[TensorRecord]| -> Result<Vec<Array>, CheckpointError> {
            recs.iter().map(|r| r.to_array()).collect()
        };
        Ok(AdamState {
            t: self.t,
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            m: dec(&self.m)?,
            v: dec(&self.v)?,
        })
    }
}

/// Serialized training progress (v2): everything besides tensors a trainer
/// needs to continue a run bit-identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainStateRecord {
    /// Epochs fully completed.
    pub epoch: u64,
    /// Optimizer steps taken across the run.
    pub step: u64,
    /// Divergence rollbacks performed so far (bounds LR backoff retries).
    pub lr_rollbacks: u32,
    /// Consecutive epochs without validation improvement (early stopping).
    pub bad_epochs: u32,
    /// Best validation loss so far; `None` when no finite value exists yet.
    pub best_val: Option<f32>,
    /// RNG state words as 16-hex-digit strings (JSON numbers are f64 and
    /// cannot carry full 64-bit words).
    pub rng: Vec<String>,
}

/// A serialized v2 training checkpoint.
#[derive(Debug, Serialize, Deserialize)]
pub struct CheckpointV2 {
    /// Trainable parameters in [`Module::params`] order.
    pub params: Vec<TensorRecord>,
    /// Non-trainable buffers (batch-norm running statistics) in
    /// [`Module::buffers`] order.
    pub buffers: Vec<TensorRecord>,
    /// Optimizer state, if the producer trains.
    pub opt: Option<OptStateRecord>,
    /// Training progress, if the producer trains.
    pub train: Option<TrainStateRecord>,
}

/// Header line preceding the v2 payload.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointHeader {
    format: String,
    version: u32,
    checksum: String,
}

const FORMAT_TAG: &str = "deepst-checkpoint";

/// Capture a module (and optional optimizer/training state) into a
/// [`CheckpointV2`].
pub fn checkpoint_v2<M: Module + ?Sized>(
    module: &M,
    opt: Option<&AdamState>,
    train: Option<TrainStateRecord>,
) -> CheckpointV2 {
    let enc = |entries: Vec<(String, Array)>| {
        entries
            .iter()
            .map(|(name, a)| TensorRecord::from_array(name, a))
            .collect()
    };
    CheckpointV2 {
        params: enc(module.state()),
        buffers: enc(module.buffers()),
        opt: opt.map(OptStateRecord::from_adam),
        train,
    }
}

/// Restore a module's parameters and buffers from a [`CheckpointV2`].
/// Optimizer/training state interpretation is the caller's business.
pub fn restore_v2<M: Module + ?Sized>(
    module: &M,
    ckpt: &CheckpointV2,
) -> Result<(), CheckpointError> {
    let dec = |recs: &[TensorRecord]| -> Result<Vec<(String, Array)>, CheckpointError> {
        recs.iter()
            .map(|r| Ok((r.name.clone(), r.to_array()?)))
            .collect()
    };
    module.load_state(&dec(&ckpt.params)?)?;
    module.load_buffers(&dec(&ckpt.buffers)?)
}

/// Serialize a [`CheckpointV2`] to `path`: header line with version and
/// payload checksum, then the payload, written atomically (tmp + fsync +
/// rename). A crash at any point leaves no torn target file.
pub fn save_v2(path: impl AsRef<Path>, ckpt: &CheckpointV2) -> Result<(), CheckpointError> {
    let payload = serde_json::to_string(ckpt)?;
    let header = serde_json::to_string(&CheckpointHeader {
        format: FORMAT_TAG.to_string(),
        version: CHECKPOINT_VERSION,
        checksum: format!("{:016x}", fnv1a64(payload.as_bytes())),
    })?;
    let mut bytes = Vec::with_capacity(header.len() + 1 + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    st_obs::write_atomic(path.as_ref(), &bytes)?;
    Ok(())
}

/// Read and verify a v2 checkpoint. Never panics: truncation, corruption,
/// or a version this build cannot read all yield typed errors.
pub fn load_v2(path: impl AsRef<Path>) -> Result<CheckpointV2, CheckpointError> {
    let bytes = std::fs::read(path)?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
    let (header_line, payload) = text
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Corrupt("missing header/payload separator".into()))?;
    let header: CheckpointHeader = serde_json::from_str(header_line)?;
    if header.format != FORMAT_TAG {
        return Err(CheckpointError::Corrupt(format!(
            "unknown format tag `{}`",
            header.format
        )));
    }
    if header.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version {
            found: header.version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let actual = format!("{:016x}", fnv1a64(payload.as_bytes()));
    if actual != header.checksum {
        return Err(CheckpointError::Checksum {
            expected: header.checksum,
            actual,
        });
    }
    serde_json::from_str(payload).map_err(CheckpointError::from)
}

// ---------------------------------------------------------------------------
// encoding helpers
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit content hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode f32 values as concatenated 8-hex-digit bit patterns.
pub fn encode_f32_bits(data: &[f32]) -> String {
    let mut s = String::with_capacity(data.len() * 8);
    for v in data {
        use fmt::Write as _;
        let _ = write!(s, "{:08x}", v.to_bits());
    }
    s
}

/// Decode a string produced by [`encode_f32_bits`].
pub fn decode_f32_bits(s: &str) -> Result<Vec<f32>, CheckpointError> {
    if !s.len().is_multiple_of(8) || !s.is_ascii() {
        return Err(CheckpointError::Corrupt(format!(
            "tensor bit string length {} is not a multiple of 8 hex digits",
            s.len()
        )));
    }
    s.as_bytes()
        .chunks(8)
        .map(|chunk| {
            std::str::from_utf8(chunk)
                .map_err(|_| CheckpointError::Corrupt("non-ascii tensor chunk".into()))
                .and_then(|hex| {
                    u32::from_str_radix(hex, 16)
                        .map(f32::from_bits)
                        .map_err(|_| {
                            CheckpointError::Corrupt(format!("bad hex tensor chunk `{hex}`"))
                        })
                })
        })
        .collect()
}

/// Encode 64-bit words (e.g. RNG state) as 16-hex-digit strings.
pub fn encode_u64_words(words: &[u64]) -> Vec<String> {
    words.iter().map(|w| format!("{w:016x}")).collect()
}

/// Decode strings produced by [`encode_u64_words`].
pub fn decode_u64_words(words: &[String]) -> Result<Vec<u64>, CheckpointError> {
    words
        .iter()
        .map(|w| {
            u64::from_str_radix(w, 16)
                .map_err(|_| CheckpointError::Corrupt(format!("bad u64 hex word `{w}`")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Mlp;
    use crate::module::Activation;
    use st_tensor::init;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = init::rng(seed);
        Mlp::new(
            "m",
            &[3, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("st_nn_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Hex bit-pattern encoding must round-trip every f32 exactly,
    /// including the values decimal formatting mangles.
    #[test]
    fn bit_encoding_is_exact() {
        let vals = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            f32::MIN_POSITIVE,
            1e-42, // denormal
            f32::MAX,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.1,
            std::f32::consts::PI,
        ];
        let decoded = decode_f32_bits(&encode_f32_bits(&vals)).unwrap();
        assert_eq!(vals.len(), decoded.len());
        for (a, b) in vals.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_f32_bits("0123456").is_err());
        assert!(decode_f32_bits("0123456x").is_err());
    }

    #[test]
    fn u64_words_roundtrip() {
        let words = vec![0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d];
        let enc = encode_u64_words(&words);
        assert_eq!(decode_u64_words(&enc).unwrap(), words);
        assert!(decode_u64_words(&["zz".to_string()]).is_err());
    }

    #[test]
    fn v2_roundtrip_is_bit_identical() {
        let dir = tmp_dir("v2");
        let path = dir.join("ckpt.json");
        let m1 = mlp(5);
        // Poke exotic bit patterns into a weight to stress the encoding.
        {
            let p = m1.params();
            let mut v = p[0].value_mut();
            v.data_mut()[0] = -0.0;
            v.data_mut()[1] = 1e-42;
        }
        let train = TrainStateRecord {
            epoch: 3,
            step: 1234,
            lr_rollbacks: 1,
            bad_epochs: 2,
            best_val: Some(0.5),
            rng: encode_u64_words(&[u64::MAX, 1, 2, 3]),
        };
        save_v2(&path, &checkpoint_v2(&m1, None, Some(train))).unwrap();
        let loaded = load_v2(&path).unwrap();
        let m2 = mlp(6);
        restore_v2(&m2, &loaded).unwrap();
        for (p1, p2) in m1.params().iter().zip(m2.params()) {
            let (a, b) = (p1.value(), p2.value());
            let bits = |arr: &Array| arr.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "bits differ for {}", p1.name());
        }
        let t = loaded.train.unwrap();
        assert_eq!(
            (t.epoch, t.step, t.lr_rollbacks, t.bad_epochs),
            (3, 1234, 1, 2)
        );
        assert_eq!(decode_u64_words(&t.rng).unwrap(), vec![u64::MAX, 1, 2, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Loading is linear in the checkpoint size: a v2 checkpoint of several
    /// megabytes (one long hex string per tensor) saves and loads in well
    /// under the bound. A parser that re-validates the rest of the input for
    /// every string character needs minutes for this file.
    #[test]
    fn multi_megabyte_checkpoint_saves_and_loads_quickly() {
        let dir = tmp_dir("big");
        let path = dir.join("big.json");
        let big = |seed| {
            let mut rng = init::rng(seed);
            Mlp::new(
                "big",
                &[512, 1024, 64],
                Activation::Tanh,
                Activation::Identity,
                &mut rng,
            )
        };
        let m1 = big(11);
        let t0 = std::time::Instant::now();
        save_v2(&path, &checkpoint_v2(&m1, None, None)).unwrap();
        let loaded = load_v2(&path).unwrap();
        let elapsed = t0.elapsed();
        let bytes = std::fs::metadata(&path).unwrap().len();
        assert!(bytes >= 4 << 20, "checkpoint is only {bytes} bytes");
        let m2 = big(12);
        restore_v2(&m2, &loaded).unwrap();
        for (p1, p2) in m1.params().iter().zip(m2.params()) {
            let bits = |arr: &Array| arr.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p1.value()), bits(&p2.value()), "{}", p1.name());
        }
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "save + load of a {bytes}-byte checkpoint took {elapsed:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v2_flipped_byte_fails_checksum() {
        let dir = tmp_dir("flip");
        let path = dir.join("ckpt.json");
        save_v2(&path, &checkpoint_v2(&mlp(7), None, None)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte (past the header line).
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let mid = header_end + (bytes.len() - header_end) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match load_v2(&path) {
            Err(CheckpointError::Checksum { .. }) | Err(CheckpointError::Parse(_)) => {}
            other => panic!("expected checksum/parse error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v2_wrong_version_rejected() {
        let dir = tmp_dir("ver");
        let path = dir.join("ckpt.json");
        save_v2(&path, &checkpoint_v2(&mlp(8), None, None)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"version\":2", "\"version\":3", 1)).unwrap();
        match load_v2(&path) {
            Err(CheckpointError::Version { found: 3, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The corruption-hardening guarantee: a checkpoint truncated at *every*
    /// byte boundary must fail with a typed error — never panic, never
    /// half-load.
    #[test]
    fn truncation_at_every_byte_is_rejected() {
        let dir = tmp_dir("trunc");
        // Tiny module so the file is small enough to scan every boundary.
        let mut rng = init::rng(0);
        let tiny = Mlp::new(
            "t",
            &[2, 2],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );

        let path = dir.join("ckpt.json");
        save_v2(&path, &checkpoint_v2(&tiny, None, None)).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = dir.join("cut.json");
        for n in 0..full.len() {
            std::fs::write(&cut, &full[..n]).unwrap();
            assert!(
                load_v2(&cut).is_err(),
                "v2 truncated to {n}/{} bytes loaded successfully",
                full.len()
            );
        }

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn garbage_files_are_rejected_not_panicked() {
        let dir = tmp_dir("garbage");
        let path = dir.join("junk.json");
        for junk in [
            "",
            "\n",
            "{",
            "not json at all",
            "{\"format\":\"other\"}\n{}",
            "[1,2,3]\n{}",
            "{\"format\":\"deepst-checkpoint\",\"version\":2,\"checksum\":\"00\"}\n{broken",
        ] {
            std::fs::write(&path, junk).unwrap();
            assert!(load_v2(&path).is_err(), "junk {junk:?} loaded");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("ckpt.json");
        save_v2(&path, &checkpoint_v2(&mlp(10), None, None)).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["ckpt.json".to_string()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn opt_state_roundtrip() {
        let st = AdamState {
            t: 7,
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![Array::vector(vec![1.0, -0.0]), Array::zeros(&[2, 2])],
            v: vec![Array::vector(vec![0.5, 2.0]), Array::ones(&[2, 2])],
        };
        let rec = OptStateRecord::from_adam(&st);
        let back = rec.to_adam().unwrap();
        assert_eq!(back.t, 7);
        assert_eq!(back.m.len(), 2);
        assert_eq!(back.m[0].data()[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(back.v[1].shape(), &[2, 2]);
        let mut bad = rec.clone();
        bad.algo = "sgd".into();
        assert!(bad.to_adam().is_err());
    }
}
