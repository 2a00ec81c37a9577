//! On-disk trip storage: sharded files, streamed reads.
//!
//! A megacity's trip corpus does not fit comfortably in memory next to the
//! model, the tape, and the optimizer (100k trips × ~50 GPS points is
//! gigabytes of `Vec<Trip>`). A [`TripStoreWriter`] spills trips to a
//! directory of fixed-size shard files as they are generated; a
//! [`TripStore`] streams them back one batch at a time, so training holds
//! one minibatch of trips, never the corpus.
//!
//! ## Format
//!
//! `<dir>/trips.meta` — `STTRIPS1` magic, shard count, total trip count,
//! and per-shard `(trips, bytes)` so truncation is detectable *at open*,
//! before an epoch burns compute on a half-corpus.
//!
//! `<dir>/shard-NNNN.bin` — length-prefixed records, each carrying an
//! FNV-1a checksum of its payload. A flipped bit or a short tail surfaces
//! as a typed [`TripStoreError`], never a panic and never a silently
//! shortened epoch (exercised against `st-core`'s fault-injection file
//! mangling in the crate tests).

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use st_roadnet::Point;

use crate::trips::{GpsPoint, Trip};

const MAGIC: &[u8; 8] = b"STTRIPS1";

/// Everything that can go wrong opening or streaming a [`TripStore`].
#[derive(Debug)]
pub enum TripStoreError {
    /// Underlying filesystem error.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The meta file does not start with the `STTRIPS1` magic.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// A shard file is shorter than the meta file recorded — an interrupted
    /// or mangled write.
    Truncated {
        /// Shard index.
        shard: usize,
        /// Bytes the meta file promised.
        expected: u64,
        /// Bytes actually on disk.
        found: u64,
    },
    /// A record failed structural validation (checksum mismatch, impossible
    /// length, short read mid-record).
    Corrupt {
        /// Shard index.
        shard: usize,
        /// Byte offset of the bad record.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TripStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripStoreError::Io { path, source } => {
                write!(f, "trip store I/O error on {}: {source}", path.display())
            }
            TripStoreError::BadMagic { path } => {
                write!(f, "{} is not a trip store (bad magic)", path.display())
            }
            TripStoreError::Truncated {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard} truncated: meta records {expected} bytes, file has {found}"
            ),
            TripStoreError::Corrupt {
                shard,
                offset,
                reason,
            } => write!(f, "shard {shard} corrupt at byte {offset}: {reason}"),
        }
    }
}

impl std::error::Error for TripStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TripStoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> TripStoreError {
    TripStoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// FNV-1a over a byte slice — cheap, dependency-free record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian reads over slices whose length the caller has already
/// validated (cursor bounds, meta-length check, fixed-size headers).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.bin"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("trips.meta")
}

fn encode_trip(trip: &Trip, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&(trip.route.len() as u32).to_le_bytes());
    for &seg in &trip.route {
        debug_assert!(seg <= u32::MAX as usize);
        buf.extend_from_slice(&(seg as u32).to_le_bytes());
    }
    buf.extend_from_slice(&trip.start_time.to_le_bytes());
    buf.extend_from_slice(&trip.end_time.to_le_bytes());
    buf.extend_from_slice(&trip.dest_coord.x.to_le_bytes());
    buf.extend_from_slice(&trip.dest_coord.y.to_le_bytes());
    buf.extend_from_slice(&(trip.hotspot as u32).to_le_bytes());
    buf.extend_from_slice(&(trip.gps.len() as u32).to_le_bytes());
    for gp in &trip.gps {
        buf.extend_from_slice(&gp.p.x.to_le_bytes());
        buf.extend_from_slice(&gp.p.y.to_le_bytes());
        buf.extend_from_slice(&gp.t.to_le_bytes());
        buf.extend_from_slice(&gp.speed.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(le_u32)
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8).map(|b| f64::from_bits(le_u64(b)))
    }
}

fn decode_trip(payload: &[u8]) -> Option<Trip> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let n_route = c.u32()? as usize;
    let mut route = Vec::with_capacity(n_route.min(payload.len() / 4));
    for _ in 0..n_route {
        route.push(c.u32()? as usize);
    }
    let start_time = c.f64()?;
    let end_time = c.f64()?;
    let dest_coord = Point::new(c.f64()?, c.f64()?);
    let hotspot = c.u32()? as usize;
    let n_gps = c.u32()? as usize;
    let mut gps = Vec::with_capacity(n_gps.min(payload.len() / 32));
    for _ in 0..n_gps {
        gps.push(GpsPoint {
            p: Point::new(c.f64()?, c.f64()?),
            t: c.f64()?,
            speed: c.f64()?,
        });
    }
    (c.pos == payload.len()).then_some(Trip {
        route,
        start_time,
        end_time,
        dest_coord,
        gps,
        hotspot,
    })
}

/// Streaming writer: trips go straight to shard files, never to a `Vec`.
pub struct TripStoreWriter {
    dir: PathBuf,
    trips_per_shard: usize,
    shards: Vec<(u64, u64)>, // (trips, bytes) per finished + current shard
    current: Option<BufWriter<File>>,
    scratch: Vec<u8>,
}

impl TripStoreWriter {
    /// Open `dir` (created if missing) for writing, rolling to a new shard
    /// file every `trips_per_shard` trips.
    pub fn create(dir: impl AsRef<Path>, trips_per_shard: usize) -> Result<Self, TripStoreError> {
        assert!(trips_per_shard > 0, "trips_per_shard must be positive");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(Self {
            dir,
            trips_per_shard,
            shards: Vec::new(),
            current: None,
            scratch: Vec::new(),
        })
    }

    /// Append one trip, rotating shards as needed.
    pub fn append(&mut self, trip: &Trip) -> Result<(), TripStoreError> {
        let rotate = match self.shards.last() {
            Some(&(trips, _)) => self.current.is_none() || trips as usize >= self.trips_per_shard,
            None => true,
        };
        if rotate {
            self.flush_current()?;
            let path = shard_path(&self.dir, self.shards.len());
            let f = File::create(&path).map_err(|e| io_err(&path, e))?;
            self.current = Some(BufWriter::new(f));
            self.shards.push((0, 0));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_trip(trip, &mut scratch);
        let path = shard_path(&self.dir, self.shards.len().saturating_sub(1));
        let Some(w) = self.current.as_mut() else {
            return Err(io_err(
                &path,
                io::Error::other("no open shard after rotation"),
            ));
        };
        let write = |w: &mut BufWriter<File>| -> io::Result<()> {
            w.write_all(&(scratch.len() as u32).to_le_bytes())?;
            w.write_all(&fnv1a(&scratch).to_le_bytes())?;
            w.write_all(&scratch)
        };
        write(w).map_err(|e| io_err(&path, e))?;
        let Some(entry) = self.shards.last_mut() else {
            return Err(io_err(
                &path,
                io::Error::other("no shard entry after rotation"),
            ));
        };
        entry.0 += 1;
        entry.1 += 12 + scratch.len() as u64;
        self.scratch = scratch;
        Ok(())
    }

    fn flush_current(&mut self) -> Result<(), TripStoreError> {
        if let Some(mut w) = self.current.take() {
            let path = shard_path(&self.dir, self.shards.len().saturating_sub(1));
            w.flush().map_err(|e| io_err(&path, e))?;
        }
        Ok(())
    }

    /// Flush everything and write the meta file. Until this runs the
    /// directory is not a valid store.
    pub fn finish(mut self) -> Result<(), TripStoreError> {
        self.flush_current()?;
        let total: u64 = self.shards.iter().map(|&(t, _)| t).sum();
        let mut buf = Vec::with_capacity(8 + 4 + 8 + self.shards.len() * 16);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        buf.extend_from_slice(&total.to_le_bytes());
        for &(trips, bytes) in &self.shards {
            buf.extend_from_slice(&trips.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
        }
        let path = meta_path(&self.dir);
        fs::write(&path, &buf).map_err(|e| io_err(&path, e))
    }
}

/// A validated on-disk trip corpus, iterable in batches.
pub struct TripStore {
    dir: PathBuf,
    shards: Vec<(u64, u64)>,
    total: u64,
}

impl TripStore {
    /// Open and validate a store written by [`TripStoreWriter`]. Every
    /// shard's on-disk size is checked against the meta file here, so an
    /// interrupted write fails fast with [`TripStoreError::Truncated`]
    /// instead of ending an epoch early.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TripStoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mpath = meta_path(&dir);
        let meta = fs::read(&mpath).map_err(|e| io_err(&mpath, e))?;
        if meta.len() < 20 || &meta[..8] != MAGIC {
            return Err(TripStoreError::BadMagic { path: mpath });
        }
        let n_shards = le_u32(&meta[8..12]) as usize;
        let total = le_u64(&meta[12..20]);
        if meta.len() != 20 + n_shards * 16 {
            return Err(TripStoreError::Corrupt {
                shard: usize::MAX,
                offset: meta.len() as u64,
                reason: format!(
                    "meta file is {} bytes, expected {} for {n_shards} shards",
                    meta.len(),
                    20 + n_shards * 16
                ),
            });
        }
        let mut shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let off = 20 + s * 16;
            let trips = le_u64(&meta[off..off + 8]);
            let bytes = le_u64(&meta[off + 8..off + 16]);
            let spath = shard_path(&dir, s);
            let found = fs::metadata(&spath).map_err(|e| io_err(&spath, e))?.len();
            if found < bytes {
                return Err(TripStoreError::Truncated {
                    shard: s,
                    expected: bytes,
                    found,
                });
            }
            shards.push((trips, bytes));
        }
        Ok(Self { dir, shards, total })
    }

    /// Total trips across all shards.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the store holds no trips.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Stream every trip in shard order. Each item is a `Result`: a corrupt
    /// record yields one typed error and the iterator stops (a half-read
    /// corpus must not masquerade as a full epoch).
    pub fn iter(&self) -> TripIter {
        TripIter {
            dir: self.dir.clone(),
            shards: self.shards.clone(),
            shard: 0,
            reader: None,
            offset: 0,
            failed: false,
        }
    }

    /// Stream trips grouped into `batch_size`-sized batches (last batch may
    /// be short) — the shape [`st_core`'s streamed trainer] consumes.
    pub fn batches(
        &self,
        batch_size: usize,
    ) -> impl Iterator<Item = Result<Vec<Trip>, TripStoreError>> {
        assert!(batch_size > 0);
        let mut it = self.iter();
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let mut batch = Vec::with_capacity(batch_size);
            while batch.len() < batch_size {
                match it.next() {
                    Some(Ok(t)) => batch.push(t),
                    Some(Err(e)) => {
                        done = true;
                        return Some(Err(e));
                    }
                    None => {
                        done = true;
                        break;
                    }
                }
            }
            (!batch.is_empty()).then_some(Ok(batch))
        })
    }
}

/// Streaming iterator over a [`TripStore`]'s records.
pub struct TripIter {
    dir: PathBuf,
    shards: Vec<(u64, u64)>,
    shard: usize,
    reader: Option<BufReader<File>>,
    offset: u64,
    failed: bool,
}

impl TripIter {
    fn next_record(&mut self) -> Result<Option<Trip>, TripStoreError> {
        loop {
            if self.reader.is_none() {
                if self.shard >= self.shards.len() {
                    return Ok(None);
                }
                let path = shard_path(&self.dir, self.shard);
                let f = File::open(&path).map_err(|e| io_err(&path, e))?;
                self.reader = Some(BufReader::new(f));
                self.offset = 0;
            }
            let shard_bytes = self.shards[self.shard].1;
            if self.offset >= shard_bytes {
                // consumed exactly the recorded extent: move on
                self.reader = None;
                self.shard += 1;
                continue;
            }
            // Opened at the top of this iteration when absent; re-enter the
            // loop (which re-opens) rather than asserting the invariant.
            let Some(r) = self.reader.as_mut() else {
                continue;
            };
            let mut header = [0u8; 12];
            let record_off = self.offset;
            read_exact_at(r, &mut header, self.shard, record_off)?;
            let len = le_u32(&header[..4]) as usize;
            let sum = le_u64(&header[4..12]);
            if record_off + 12 + len as u64 > shard_bytes {
                return Err(TripStoreError::Corrupt {
                    shard: self.shard,
                    offset: record_off,
                    reason: format!("record length {len} overruns the shard"),
                });
            }
            let mut payload = vec![0u8; len];
            read_exact_at(r, &mut payload, self.shard, record_off)?;
            if fnv1a(&payload) != sum {
                return Err(TripStoreError::Corrupt {
                    shard: self.shard,
                    offset: record_off,
                    reason: "checksum mismatch".into(),
                });
            }
            let trip = decode_trip(&payload).ok_or_else(|| TripStoreError::Corrupt {
                shard: self.shard,
                offset: record_off,
                reason: "payload does not decode as a trip".into(),
            })?;
            self.offset += 12 + len as u64;
            return Ok(Some(trip));
        }
    }
}

fn read_exact_at(
    r: &mut BufReader<File>,
    buf: &mut [u8],
    shard: usize,
    offset: u64,
) -> Result<(), TripStoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TripStoreError::Corrupt {
                shard,
                offset,
                reason: "shard shrank mid-read (unexpected EOF)".into(),
            }
        } else {
            TripStoreError::Io {
                path: PathBuf::new(),
                source: e,
            }
        }
    })
}

impl Iterator for TripIter {
    type Item = Result<Trip, TripStoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(t)) => Some(Ok(t)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(i: usize) -> Trip {
        Trip {
            route: vec![i, i + 1, i + 2],
            start_time: i as f64 * 10.0,
            end_time: i as f64 * 10.0 + 42.5,
            dest_coord: Point::new(1.5 * i as f64, -2.0),
            gps: vec![GpsPoint {
                p: Point::new(0.25, 0.75),
                t: i as f64,
                speed: 13.0,
            }],
            hotspot: i % 3,
        }
    }

    fn write_store(dir: &Path, n: usize, per_shard: usize) {
        let mut w = TripStoreWriter::create(dir, per_shard).unwrap();
        for i in 0..n {
            w.append(&trip(i)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn round_trips_across_shards() {
        let dir = std::env::temp_dir().join(format!("st-sim-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_store(&dir, 10, 4);
        let store = TripStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.shards.len(), 3); // 4 + 4 + 2
        let trips: Vec<Trip> = store.iter().map(|r| r.unwrap()).collect();
        assert_eq!(trips.len(), 10);
        for (i, t) in trips.iter().enumerate() {
            assert_eq!(t.route, trip(i).route);
            assert_eq!(t.start_time, trip(i).start_time);
            assert_eq!(t.gps.len(), 1);
            assert_eq!(t.gps[0].speed, 13.0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_cover_everything_once() {
        let dir = std::env::temp_dir().join(format!("st-sim-batches-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_store(&dir, 7, 3);
        let store = TripStore::open(&dir).unwrap();
        let sizes: Vec<usize> = store.batches(2).map(|b| b.unwrap().len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite pin: a shard truncated mid-write (via `st-core`'s
    /// fault-injection file mangling) is a typed error at open, never a
    /// panic and never a silently shortened corpus.
    #[test]
    fn truncated_shard_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("st-sim-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_store(&dir, 9, 3);
        let victim = shard_path(&dir, 1);
        let full = fs::metadata(&victim).unwrap().len();
        st_core::faultinject::truncate_file(&victim, full / 2).unwrap();
        match TripStore::open(&dir) {
            Err(TripStoreError::Truncated {
                shard, expected, ..
            }) => {
                assert_eq!(shard, 1);
                assert_eq!(expected, full);
            }
            other => panic!("expected Truncated, got {other:?}", other = other.err()),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A flipped payload byte surfaces as a checksum-mismatch error from the
    /// iterator, which then fuses (no half-trips after an error).
    #[test]
    fn corrupt_record_is_a_typed_error_and_fuses() {
        let dir = std::env::temp_dir().join(format!("st-sim-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_store(&dir, 4, 10);
        let victim = shard_path(&dir, 0);
        let mut bytes = fs::read(&victim).unwrap();
        // flip a byte inside the second record's payload
        let rec0_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let idx = 12 + rec0_len + 12 + 2;
        bytes[idx] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();
        let store = TripStore::open(&dir).unwrap(); // sizes still match
        let mut it = store.iter();
        assert!(it.next().unwrap().is_ok(), "record 0 untouched");
        match it.next().unwrap() {
            Err(TripStoreError::Corrupt { shard: 0, .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(it.next().is_none(), "iterator must fuse after an error");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_store_does_not_open() {
        let dir = std::env::temp_dir().join(format!("st-sim-unfinished-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut w = TripStoreWriter::create(&dir, 4).unwrap();
        w.append(&trip(0)).unwrap();
        // no finish(): meta missing
        assert!(matches!(
            TripStore::open(&dir),
            Err(TripStoreError::Io { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
