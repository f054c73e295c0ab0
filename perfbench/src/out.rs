//! The counter digest that lets two commits compare simulated output
//! exactly.

use std::fmt::Write as _;

/// FNV-1a over `bytes`: a stable 64-bit digest, identical on every
/// platform and toolchain (unlike `std`'s randomly keyed hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of named counters, rendered one `name=value` line each.
pub fn counter_digest(counters: &[(String, u64)]) -> u64 {
    let mut text = String::new();
    for (name, value) in counters {
        let _ = writeln!(text, "{name}={value}");
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
