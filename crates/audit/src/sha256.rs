//! Pure-Rust SHA-256 (FIPS 180-4).
//!
//! The paper's PERMIS implementation protects its audit trail with a
//! PKI-based secure audit web service \[5\]. No cryptography crate exists
//! in the allowed offline set, so the hash (and the HMAC built on it in
//! [`crate::hmac`]) is implemented from scratch. Correctness is pinned
//! by the official NIST test vectors below.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered, < BLOCK_LEN.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: 0 }
    }

    /// Absorb input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding(0x80);
        while self.buf_len != 56 {
            self.update_padding(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        for b in len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Feed one padding byte without counting it in total_len.
    fn update_padding(&mut self, byte: u8) {
        self.buf[self.buf_len] = byte;
        self.buf_len += 1;
        if self.buf_len == BLOCK_LEN {
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // Safety: `available()` verified the sha/ssse3/sse4.1
            // CPUID bits at runtime.
            unsafe { ni::compress(&mut self.state, block) };
            return;
        }
        self.compress_soft(block);
    }

    /// Portable scalar compression — the fallback on CPUs without
    /// SHA extensions, and the reference the hardware path is tested
    /// against.
    fn compress_soft(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Hardware SHA-256 via the x86 SHA extensions (SHA-NI), selected at
/// runtime. The hot audit path hashes one ~300-byte record per
/// decision; the scalar schedule dominates that cost, and these
/// instructions do the whole 64-round compression in a handful of
/// micro-ops. Correctness is pinned by the NIST vectors plus a
/// soft-vs-hardware differential test below.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unprobed, 1 = unavailable, 2 = available.
    static PROBE: AtomicU8 = AtomicU8::new(0);

    pub fn available() -> bool {
        match PROBE.load(Ordering::Relaxed) {
            0 => {
                let ok = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                PROBE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
            s => s == 2,
        }
    }

    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // Four rounds: two SHA256RNDS2, the second fed the high half
        // of the round-constant-laden message quad.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $wk:expr) => {{
                let wk = $wk;
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // W[i+4..i+8] from the previous four message quads.
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                _mm_sha256msg2_epu32(t, $w3)
            }};
        }
        let k = |i: usize| _mm_loadu_si128(K.as_ptr().add(i * 4) as *const __m128i);
        // Big-endian dword loads via a byte shuffle.
        let mask = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0Bu64 as i64, 0x0405_0607_0001_0203u64 as i64);

        // Repack [a,b,c,d],[e,f,g,h] into the ABEF/CDGH lane order the
        // instructions expect (Intel's reference prologue).
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let (abef_save, cdgh_save) = (abef, cdgh);

        let p = block.as_ptr() as *const __m128i;
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

        rounds4!(abef, cdgh, _mm_add_epi32(w0, k(0)));
        rounds4!(abef, cdgh, _mm_add_epi32(w1, k(1)));
        rounds4!(abef, cdgh, _mm_add_epi32(w2, k(2)));
        rounds4!(abef, cdgh, _mm_add_epi32(w3, k(3)));
        for i in 4..16 {
            let next = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, _mm_add_epi32(next, k(i)));
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }

        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Inverse repack (Intel's reference epilogue).
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// One-shot convenience.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex-encode a digest (lowercase).
pub fn hex(digest: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(digest.len() * 2);
    for &b in digest {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 / de-facto standard vectors.
    #[test]
    fn empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        // Split at awkward boundaries.
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 5000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exactly_block_sized_inputs() {
        // 55/56/64 byte inputs hit the padding edge cases.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
    }

    /// On SHA-NI machines the dispatcher takes the hardware path, so
    /// drive the scalar path explicitly and check every block-compress
    /// against it; a no-op everywhere else (both sides scalar).
    #[test]
    fn hardware_matches_soft_compress() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..200 {
            let mut block = [0u8; BLOCK_LEN];
            for chunk in block.chunks_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let mut hw = Sha256::new();
            let mut soft = hw.clone();
            hw.compress(&block);
            soft.compress_soft(&block);
            assert_eq!(hw.state, soft.state);
        }
    }
}
