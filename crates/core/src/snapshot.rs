//! Binary checkpoint encoding.
//!
//! A tiny hand-rolled little-endian codec for [`crate::obs::Session`]
//! snapshots: fixed-width scalars, length-prefixed byte blocks, and a
//! fail-closed [`Reader`] that reports truncation instead of panicking.
//! Everything is deterministic — the same state always serializes to
//! the same bytes, which the checkpoint/resume byte-identity tests rely
//! on.

use crate::error::CoreError;

/// Magic prefix of every snapshot ("SCRIPCKP" as bytes).
pub(crate) const MAGIC: [u8; 8] = *b"SCRIPCKP";
/// Format version; bump on any layout change.
pub(crate) const VERSION: u32 = 1;

/// An append-only snapshot encoder.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
    /// Running FNV-1a state of a digesting writer (see
    /// [`Writer::digesting`]), which folds bytes in place of buffering
    /// them; `None` for an encoding writer.
    digest: Option<u64>,
}

impl Writer {
    /// A writer starting with the magic prefix and format version.
    pub(crate) fn with_header() -> Self {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(VERSION);
        w
    }

    /// A writer that folds what it is given into an FNV-1a digest as it
    /// goes, so [`Writer::digest`] equals [`fingerprint`] of the bytes an
    /// encoding writer would hold, without materializing them (a market
    /// state at n = 10⁵ encodes to tens of MB).
    pub(crate) fn digesting() -> Self {
        Writer {
            buf: Vec::new(),
            digest: Some(FNV_OFFSET),
        }
    }

    /// The digest of everything written to a [`Writer::digesting`].
    pub(crate) fn digest(self) -> u64 {
        self.digest.expect("a digesting writer")
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.digest {
            Some(h) => *h = fnv_fold(*h, bytes),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }

    /// Length-prefixed opaque block (probe state, nested sections).
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put(v);
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far (trace payloads hash and copy these
    /// without consuming the writer).
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer so a long-lived writer can re-encode without
    /// reallocating (the per-event trace hot path).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A fail-closed snapshot decoder over a byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data` with no header check — for nested blocks (e.g.
    /// per-probe state) written by a plain [`Writer::default`].
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Wraps `data`, checking the magic prefix and format version.
    pub(crate) fn with_header(data: &'a [u8]) -> Result<Self, CoreError> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(CoreError::Checkpoint(
                "not a scrip checkpoint (bad magic)".into(),
            ));
        }
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(CoreError::Checkpoint(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(CoreError::Checkpoint(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len()
            )));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, CoreError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CoreError::Checkpoint(format!("invalid bool byte {b}"))),
        }
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A count of items that follow, each at least `min_item_bytes`
    /// long on the wire. Fails unless that many items could fit in the
    /// bytes left, so a hostile count can never size an allocation (or
    /// a loop) beyond the snapshot that carries it.
    pub(crate) fn take_count(&mut self, min_item_bytes: usize) -> Result<usize, CoreError> {
        #[cfg(test)]
        record_count_site(&self.data[self.pos..]);
        let at = self.pos;
        let count = self.take_u64()?;
        let left = self.data.len() - self.pos;
        usize::try_from(count)
            .ok()
            .filter(|&c| c.checked_mul(min_item_bytes).is_some_and(|b| b <= left))
            .ok_or_else(|| {
                CoreError::Checkpoint(format!(
                    "count {count} at offset {at} exceeds the {left} bytes left \
                     ({min_item_bytes} per item)"
                ))
            })
    }

    /// A length-prefixed block written by [`Writer::put_bytes`].
    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], CoreError> {
        let len = self.take_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| CoreError::Checkpoint(format!("block length {len} overflows usize")))?;
        self.take(len)
    }

    /// Fails if any bytes remain unread (catches writer/reader drift).
    pub(crate) fn finish(self) -> Result<(), CoreError> {
        if self.pos != self.data.len() {
            return Err(CoreError::Checkpoint(format!(
                "snapshot has {} trailing bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// While `Some`, the address of every count field [`Reader::take_count`]
    /// reads on this thread, nested blocks included, so a test can find
    /// and patch each one in the buffer it decoded.
    static COUNT_SITES: std::cell::RefCell<Option<Vec<usize>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
fn record_count_site(at: &[u8]) {
    COUNT_SITES.with(|sites| {
        if let Some(sites) = sites.borrow_mut().as_mut() {
            sites.push(at.as_ptr() as usize);
        }
    });
}

/// Runs `decode` on `bytes` and returns the offset into `bytes` of every
/// count field it read through [`Reader::take_count`], in read order.
#[cfg(test)]
pub(crate) fn count_offsets<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> Vec<usize> {
    COUNT_SITES.with(|sites| *sites.borrow_mut() = Some(Vec::new()));
    decode(bytes);
    let sites = COUNT_SITES.with(|sites| sites.borrow_mut().take().unwrap_or_default());
    let base = bytes.as_ptr() as usize;
    sites
        .into_iter()
        .filter(|&at| at >= base && at < base + bytes.len())
        .map(|at| at - base)
        .collect()
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte string — the configuration fingerprint stored in
/// every snapshot so a resume against a different scenario fails loudly
/// instead of silently diverging.
pub(crate) fn fingerprint(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_blocks() {
        let mut w = Writer::with_header();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.125);
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = Reader::with_header(&bytes).expect("valid header");
        assert_eq!(r.take_u8().expect("u8"), 7);
        assert!(r.take_bool().expect("bool"));
        assert_eq!(r.take_u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.take_f64().expect("f64"), -0.125);
        assert_eq!(r.take_bytes().expect("bytes"), b"hello");
        r.finish().expect("fully consumed");
    }

    #[test]
    fn digesting_writer_matches_the_fingerprint_of_the_encoding() {
        let (mut encoded, mut digested) = (Writer::default(), Writer::digesting());
        for k in 0..1_000u64 {
            for w in [&mut encoded, &mut digested] {
                w.put_u64(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                w.put_u8(k as u8);
                w.put_u32(k as u32);
                w.put_f64(k as f64 * 0.5);
                w.put_bytes(&[k as u8; 3]);
            }
        }
        assert_eq!(digested.digest(), fingerprint(encoded.as_slice()));
        assert_eq!(Writer::digesting().digest(), fingerprint(&[]));
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing_bytes() {
        assert!(Reader::with_header(b"NOTASNAP____").is_err());
        let mut w = Writer::with_header();
        w.put_u64(42);
        let bytes = w.into_bytes();
        // Truncated mid-scalar.
        let mut r = Reader::with_header(&bytes[..bytes.len() - 2]).expect("header ok");
        assert!(r.take_u64().is_err());
        // Trailing garbage.
        let r = Reader::with_header(&bytes).expect("header ok");
        assert!(r.finish().is_err());
    }

    #[test]
    fn take_count_rejects_counts_the_remaining_bytes_cannot_hold() {
        let mut w = Writer::default();
        w.put_u64(3);
        for v in [1u64, 2, 3] {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).take_count(8).expect("fits"), 3);
        assert!(Reader::new(&bytes).take_count(9).is_err());
        for hostile in [4, u64::MAX / 2, u64::MAX] {
            let mut patched = bytes.clone();
            patched[..8].copy_from_slice(&hostile.to_le_bytes());
            assert!(
                matches!(
                    Reader::new(&patched).take_count(8),
                    Err(CoreError::Checkpoint(_))
                ),
                "count {hostile} accepted"
            );
        }
        assert_eq!(
            count_offsets(&bytes, |b| Reader::new(b).take_count(8)),
            vec![0]
        );
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }
}
