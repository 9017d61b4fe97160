//! MD5 message digest, implemented from RFC 1321.
//!
//! MD5 is used here strictly as the paper used it — a deterministic,
//! well-distributed identifier/placement hash — not for any security
//! purpose.
//!
//! One compression function, `compress`, runs the 64 steps over `N`
//! independent lanes: [`Md5`] (and so [`digest`]) runs it at one lane,
//! and [`digest_many`] at four, hashing four messages side by side. The
//! lanes are a plain loop over arrays, which the compiler turns into
//! vector instructions on the baseline target (SSE2 on x86-64) at
//! `opt-level = 3`; no `unsafe` and no target features.

const INIT: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// Lanes of [`digest_many`]. Eight were no faster per block than four
/// on the baseline x86-64 target (SSE2, 16 vector registers).
const LANES: usize = 4;

/// Round 1: `(x & y) | (!x & z)`, one operation shorter.
#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    z ^ (x & (y ^ z))
}

/// Round 2: `(x & z) | (y & !z)`, one operation shorter.
#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    y ^ (z & (x ^ y))
}

/// Round 3.
#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

/// Round 4.
#[inline(always)]
fn i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

/// Compresses one 64-byte block per lane into `state`: `state[w][l]` is
/// word `w` of lane `l`'s chaining value, and `m[j][l]` the `j`-th
/// little-endian word of lane `l`'s block.
///
/// The 64 steps are written out as RFC 1321 lists them,
/// `[abcd k s i]`: `a = b + ((a + F(b, c, d) + X[k] + T[i]) <<< s)`. The
/// lanes are the outer loop, so for `N = 4` the loop vectorizer runs the
/// whole loop body once on four-wide vectors. A loop over the lanes
/// inside every step instead stays scalar: the SLP vectorizer would have
/// to build that 64-step chain as one tree.
#[inline(always)]
fn compress<const N: usize>(state: &mut [[u32; N]; 4], m: &[[u32; N]; 16]) {
    for l in 0..N {
        let [mut a, mut b, mut c, mut d] = [state[0][l], state[1][l], state[2][l], state[3][l]];
        macro_rules! step {
            ($fn:ident, $a:ident, $b:ident, $c:ident, $d:ident, $k:literal, $s:literal, $t:literal) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($fn($b, $c, $d))
                        .wrapping_add(m[$k][l])
                        .wrapping_add($t)
                        .rotate_left($s),
                );
            };
        }
        step!(f, a, b, c, d, 0, 7, 0xd76a_a478);
        step!(f, d, a, b, c, 1, 12, 0xe8c7_b756);
        step!(f, c, d, a, b, 2, 17, 0x2420_70db);
        step!(f, b, c, d, a, 3, 22, 0xc1bd_ceee);
        step!(f, a, b, c, d, 4, 7, 0xf57c_0faf);
        step!(f, d, a, b, c, 5, 12, 0x4787_c62a);
        step!(f, c, d, a, b, 6, 17, 0xa830_4613);
        step!(f, b, c, d, a, 7, 22, 0xfd46_9501);
        step!(f, a, b, c, d, 8, 7, 0x6980_98d8);
        step!(f, d, a, b, c, 9, 12, 0x8b44_f7af);
        step!(f, c, d, a, b, 10, 17, 0xffff_5bb1);
        step!(f, b, c, d, a, 11, 22, 0x895c_d7be);
        step!(f, a, b, c, d, 12, 7, 0x6b90_1122);
        step!(f, d, a, b, c, 13, 12, 0xfd98_7193);
        step!(f, c, d, a, b, 14, 17, 0xa679_438e);
        step!(f, b, c, d, a, 15, 22, 0x49b4_0821);

        step!(g, a, b, c, d, 1, 5, 0xf61e_2562);
        step!(g, d, a, b, c, 6, 9, 0xc040_b340);
        step!(g, c, d, a, b, 11, 14, 0x265e_5a51);
        step!(g, b, c, d, a, 0, 20, 0xe9b6_c7aa);
        step!(g, a, b, c, d, 5, 5, 0xd62f_105d);
        step!(g, d, a, b, c, 10, 9, 0x0244_1453);
        step!(g, c, d, a, b, 15, 14, 0xd8a1_e681);
        step!(g, b, c, d, a, 4, 20, 0xe7d3_fbc8);
        step!(g, a, b, c, d, 9, 5, 0x21e1_cde6);
        step!(g, d, a, b, c, 14, 9, 0xc337_07d6);
        step!(g, c, d, a, b, 3, 14, 0xf4d5_0d87);
        step!(g, b, c, d, a, 8, 20, 0x455a_14ed);
        step!(g, a, b, c, d, 13, 5, 0xa9e3_e905);
        step!(g, d, a, b, c, 2, 9, 0xfcef_a3f8);
        step!(g, c, d, a, b, 7, 14, 0x676f_02d9);
        step!(g, b, c, d, a, 12, 20, 0x8d2a_4c8a);

        step!(h, a, b, c, d, 5, 4, 0xfffa_3942);
        step!(h, d, a, b, c, 8, 11, 0x8771_f681);
        step!(h, c, d, a, b, 11, 16, 0x6d9d_6122);
        step!(h, b, c, d, a, 14, 23, 0xfde5_380c);
        step!(h, a, b, c, d, 1, 4, 0xa4be_ea44);
        step!(h, d, a, b, c, 4, 11, 0x4bde_cfa9);
        step!(h, c, d, a, b, 7, 16, 0xf6bb_4b60);
        step!(h, b, c, d, a, 10, 23, 0xbebf_bc70);
        step!(h, a, b, c, d, 13, 4, 0x289b_7ec6);
        step!(h, d, a, b, c, 0, 11, 0xeaa1_27fa);
        step!(h, c, d, a, b, 3, 16, 0xd4ef_3085);
        step!(h, b, c, d, a, 6, 23, 0x0488_1d05);
        step!(h, a, b, c, d, 9, 4, 0xd9d4_d039);
        step!(h, d, a, b, c, 12, 11, 0xe6db_99e5);
        step!(h, c, d, a, b, 15, 16, 0x1fa2_7cf8);
        step!(h, b, c, d, a, 2, 23, 0xc4ac_5665);

        step!(i, a, b, c, d, 0, 6, 0xf429_2244);
        step!(i, d, a, b, c, 7, 10, 0x432a_ff97);
        step!(i, c, d, a, b, 14, 15, 0xab94_23a7);
        step!(i, b, c, d, a, 5, 21, 0xfc93_a039);
        step!(i, a, b, c, d, 12, 6, 0x655b_59c3);
        step!(i, d, a, b, c, 3, 10, 0x8f0c_cc92);
        step!(i, c, d, a, b, 10, 15, 0xffef_f47d);
        step!(i, b, c, d, a, 1, 21, 0x8584_5dd1);
        step!(i, a, b, c, d, 8, 6, 0x6fa8_7e4f);
        step!(i, d, a, b, c, 15, 10, 0xfe2c_e6e0);
        step!(i, c, d, a, b, 6, 15, 0xa301_4314);
        step!(i, b, c, d, a, 13, 21, 0x4e08_11a1);
        step!(i, a, b, c, d, 4, 6, 0xf753_7e82);
        step!(i, d, a, b, c, 11, 10, 0xbd3a_f235);
        step!(i, c, d, a, b, 2, 15, 0x2ad7_d2bb);
        step!(i, b, c, d, a, 9, 21, 0xeb86_d391);

        for (word, value) in state.iter_mut().zip([a, b, c, d]) {
            word[l] = word[l].wrapping_add(value);
        }
    }
}

/// Writes the 64-byte `block` into lane `lane` of `m` as 16
/// little-endian words.
#[inline(always)]
fn load<const N: usize>(m: &mut [[u32; N]; 16], lane: usize, block: &[u8]) {
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        word[lane] = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
}

/// Compresses every whole 64-byte block of `data` into a one-lane state.
fn compress_blocks(state: &mut [[u32; 1]; 4], data: &[u8]) {
    let mut m = [[0u32; 1]; 16];
    for block in data.chunks_exact(64) {
        load(&mut m, 0, block);
        compress(state, &m);
    }
}

/// The padded end of a message of `len` bytes whose last `rest.len()`
/// (< 64) bytes are `rest`: `rest`, the byte `0x80`, zeros and the
/// 64-bit little-endian bit length, in one block or two. Returns the
/// bytes and their length (64 or 128).
fn pad(rest: &[u8], len: u64) -> ([u8; 128], usize) {
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    tail[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_le_bytes());
    (tail, end)
}

/// The digest bytes of lane `lane`'s final state.
fn output<const N: usize>(state: &[[u32; N]; 4], lane: usize) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word[lane].to_le_bytes());
    }
    out
}

/// Streaming MD5 hasher.
///
/// ```
/// use cca_hash::md5::Md5;
/// let mut h = Md5::new();
/// h.update(b"abc");
/// assert_eq!(Md5::hex(&h.finalize()), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [[u32; 1]; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    #[must_use]
    pub fn new() -> Self {
        Md5 {
            state: INIT.map(|w| [w]),
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = input.len() - input.len() % 64;
        compress_blocks(&mut self.state, &input[..whole]);
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the computation and returns the 16-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 16] {
        let (tail, end) = pad(&self.buffer[..self.buffered], self.length_bytes);
        compress_blocks(&mut self.state, &tail[..end]);
        output(&self.state, 0)
    }

    /// Formats a digest as lowercase hex.
    #[must_use]
    pub fn hex(digest: &[u8; 16]) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(32);
        for &byte in digest {
            out.push(char::from(DIGITS[usize::from(byte >> 4)]));
            out.push(char::from(DIGITS[usize::from(byte & 0xf)]));
        }
        out
    }
}

/// One-shot digest of `data`.
///
/// ```
/// use cca_hash::md5;
/// assert_eq!(md5::Md5::hex(&md5::digest(b"")), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
#[must_use]
pub fn digest(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// One message in a lane of [`digest_many`]: its whole blocks are read
/// in place, its padded tail from `tail`.
struct Lane<'a> {
    /// Position of the message in the input.
    index: usize,
    /// The message's whole 64-byte blocks.
    body: &'a [u8],
    tail: [u8; 128],
    /// Bytes of the padded message compressed so far.
    done: usize,
    /// Length of the padded message.
    end: usize,
}

impl<'a> Lane<'a> {
    fn new(index: usize, message: &'a [u8]) -> Self {
        let whole = message.len() - message.len() % 64;
        let (tail, tail_len) = pad(&message[whole..], message.len() as u64);
        Lane {
            index,
            body: &message[..whole],
            tail,
            done: 0,
            end: whole + tail_len,
        }
    }

    /// The next 64-byte block of the padded message.
    fn block(&self) -> &[u8] {
        match self.body.get(self.done..self.done + 64) {
            Some(block) => block,
            None => &self.tail[self.done - self.body.len()..][..64],
        }
    }
}

/// The digests of `messages`, in order: `digest_many(m)[i] ==
/// digest(m[i])`.
///
/// Hashes four messages side by side, longest first; a lane takes the
/// next message as soon as its own ends, and the last message left
/// finishes on one lane from where its lane stood.
///
/// ```
/// use cca_hash::md5;
/// let messages: [&[u8]; 3] = [b"abc", b"", b"message digest"];
/// let digests = md5::digest_many(&messages);
/// assert_eq!(digests, messages.map(md5::digest));
/// ```
#[must_use]
pub fn digest_many(messages: &[&[u8]]) -> Vec<[u8; 16]> {
    let mut out = vec![[0u8; 16]; messages.len()];
    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(messages[i].len()));
    let mut queue = order.into_iter();
    let mut lanes: [Option<Lane>; LANES] = [None, None, None, None];
    let mut state = [[0u32; LANES]; 4];
    let mut m = [[0u32; LANES]; 16];
    loop {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.is_none() {
                if let Some(i) = queue.next() {
                    *lane = Some(Lane::new(i, messages[i]));
                    for (word, init) in state.iter_mut().zip(INIT) {
                        word[l] = init;
                    }
                }
            }
        }
        if lanes.iter().flatten().count() <= 1 {
            break;
        }
        for (l, lane) in lanes.iter().enumerate() {
            if let Some(lane) = lane {
                load(&mut m, l, lane.block());
            }
        }
        compress(&mut state, &m);
        for (l, slot) in lanes.iter_mut().enumerate() {
            if let Some(lane) = slot {
                lane.done += 64;
                if lane.done == lane.end {
                    out[lane.index] = output(&state, l);
                    *slot = None;
                }
            }
        }
    }
    // The queue is empty: the one message left finishes on one lane,
    // from where its lane stood.
    let last = lanes
        .into_iter()
        .enumerate()
        .find_map(|(l, lane)| Some((l, lane?)));
    if let Some((l, mut lane)) = last {
        let mut one = state.map(|word| [word[l]]);
        while lane.done < lane.end {
            compress_blocks(&mut one, lane.block());
            lane.done += 64;
        }
        out[lane.index] = output(&one, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_check::{gen, prop_assert_eq, Checker};

    /// Per-step left-rotation amounts of the reference kernel.
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// `K[i] = floor(2^32 * abs(sin(i + 1)))`, per RFC 1321.
    const K: [u32; 64] = [
        0xd76a_a478,
        0xe8c7_b756,
        0x2420_70db,
        0xc1bd_ceee,
        0xf57c_0faf,
        0x4787_c62a,
        0xa830_4613,
        0xfd46_9501,
        0x6980_98d8,
        0x8b44_f7af,
        0xffff_5bb1,
        0x895c_d7be,
        0x6b90_1122,
        0xfd98_7193,
        0xa679_438e,
        0x49b4_0821,
        0xf61e_2562,
        0xc040_b340,
        0x265e_5a51,
        0xe9b6_c7aa,
        0xd62f_105d,
        0x0244_1453,
        0xd8a1_e681,
        0xe7d3_fbc8,
        0x21e1_cde6,
        0xc337_07d6,
        0xf4d5_0d87,
        0x455a_14ed,
        0xa9e3_e905,
        0xfcef_a3f8,
        0x676f_02d9,
        0x8d2a_4c8a,
        0xfffa_3942,
        0x8771_f681,
        0x6d9d_6122,
        0xfde5_380c,
        0xa4be_ea44,
        0x4bde_cfa9,
        0xf6bb_4b60,
        0xbebf_bc70,
        0x289b_7ec6,
        0xeaa1_27fa,
        0xd4ef_3085,
        0x0488_1d05,
        0xd9d4_d039,
        0xe6db_99e5,
        0x1fa2_7cf8,
        0xc4ac_5665,
        0xf429_2244,
        0x432a_ff97,
        0xab94_23a7,
        0xfc93_a039,
        0x655b_59c3,
        0x8f0c_cc92,
        0xffef_f47d,
        0x8584_5dd1,
        0x6fa8_7e4f,
        0xfe2c_e6e0,
        0xa301_4314,
        0x4e08_11a1,
        0xf753_7e82,
        0xbd3a_f235,
        0x2ad7_d2bb,
        0xeb86_d391,
    ];

    /// The reference kernel: the 64 steps as one loop, with a `match` per
    /// step for the round function and message index, and the rotations
    /// read from [`S`].
    fn reference_block(state: &mut [u32; 4], block: &[u8]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        for (word, step) in state.iter_mut().zip([a, b, c, d]) {
            *word = word.wrapping_add(step);
        }
    }

    /// The reference digest: pads a copy of the whole message, then runs
    /// [`reference_block`] over it.
    fn reference(data: &[u8]) -> [u8; 16] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = INIT;
        for block in padded.chunks_exact(64) {
            reference_block(&mut state, block);
        }
        let mut out = [0u8; 16];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The seven test vectors from RFC 1321 §A.5.
    #[test]
    fn rfc1321_test_suite() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Md5::hex(&digest(input.as_bytes())), want, "input {input:?}");
            assert_eq!(
                Md5::hex(&reference(input.as_bytes())),
                want,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let whole = digest(&data);
        for chunk_size in [1, 3, 63, 64, 65, 127, 500] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), whole, "chunk size {chunk_size}");
        }
    }

    /// `b"x"` repeated around the padding boundaries (one block holds 55
    /// message bytes with their padding; 56–63 spill into a second),
    /// pinned on the one-shot, byte-at-a-time and four-lane paths.
    #[test]
    fn boundary_lengths_are_correct() {
        let cases: [(usize, &str); 9] = [
            (55, "04364420e25c512fd958a70738aa8f72"),
            (56, "668a72d5ba17f08e62dabcafad6db14b"),
            (57, "693037871c4a9d3d8685018905cb530a"),
            (63, "7dc2ca208106a2f703567bdff99d8981"),
            (64, "c1bb4f81d892b2d57947682aeb252456"),
            (65, "1bc932052302d074bdec39795fe00cf6"),
            (119, "ab347a5f68c8a443cfcddc633f12c24f"),
            (120, "fb98667f98096de92620b64f46e1c5b5"),
            (121, "e8bb0ccd83750100b37f4831cd5d7ee2"),
        ];
        let messages: Vec<Vec<u8>> = cases.iter().map(|&(n, _)| vec![b'x'; n]).collect();
        let slices: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let many = digest_many(&slices);
        for ((message, (n, want)), lanes) in messages.iter().zip(cases).zip(many) {
            assert_eq!(Md5::hex(&digest(message)), want, "digest, n = {n}");
            let mut h = Md5::new();
            for byte in message {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(Md5::hex(&h.finalize()), want, "1-byte updates, n = {n}");
            assert_eq!(Md5::hex(&lanes), want, "digest_many, n = {n}");
        }
    }

    #[test]
    fn digest_many_of_nothing_is_empty() {
        assert!(digest_many(&[]).is_empty());
    }

    /// Every path through the unrolled kernel equals the reference loop:
    /// one-shot and chunked streaming digests of each message, one
    /// `digest_many` call over all of them (duplicates and empty messages
    /// included), and `hex` against the `{:02x}` form.
    #[test]
    fn kernels_match_the_reference() {
        Checker::new("kernels_match_the_reference").cases(256).run(
            |rng| {
                let mut messages: Vec<Vec<u8>> = Vec::new();
                for _ in 0..gen::int(rng, 0usize..=70) {
                    let message = match gen::int(rng, 0u32..20) {
                        0 => Vec::new(),
                        1 if !messages.is_empty() => {
                            messages[gen::int(rng, 0..messages.len())].clone()
                        }
                        2 => gen::bytes(rng, 300..9_000),
                        _ => gen::bytes(rng, 0..300),
                    };
                    messages.push(message);
                }
                let chunks = gen::vec(rng, 1..6, |r| gen::int(r, 0usize..130));
                let raw = gen::bytes(rng, 16..160);
                (messages, chunks, raw)
            },
            |(messages, chunks, raw)| {
                let want: Vec<[u8; 16]> = messages.iter().map(|m| reference(m)).collect();
                for (message, &expected) in messages.iter().zip(&want) {
                    prop_assert_eq!(digest(message), expected);
                    // A zero chunk is an empty update; the trailing 1
                    // keeps the walk moving.
                    let mut h = Md5::new();
                    let mut rest = message.as_slice();
                    for &chunk in chunks.iter().chain([&1]).cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (now, later) = rest.split_at(chunk.min(rest.len()));
                        h.update(now);
                        rest = later;
                    }
                    prop_assert_eq!(h.finalize(), expected);
                }
                let slices: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
                prop_assert_eq!(digest_many(&slices), want);
                let random = raw
                    .chunks_exact(16)
                    .map(|c| c.try_into().expect("16 bytes"));
                for d in want.iter().copied().chain(random) {
                    let formatted: String = d.iter().map(|b| format!("{b:02x}")).collect();
                    prop_assert_eq!(Md5::hex(&d), formatted);
                }
                Ok(())
            },
        );
    }
}
