//! Single-nucleotide representation with a 2-bit encoding.
//!
//! The encoding (`A=0, C=1, T=2, G=3`) follows the ordering the paper uses in its
//! invalidation-check example (Fig. 4: "A=0, C=1, T=2, G=3"), so lexicographic
//! comparisons of packed k-mers match the paper's MacroNode invalidation rule.

use crate::dna::code_of_ascii;
use crate::error::GenomeError;
use std::fmt;

/// A single DNA nucleotide.
///
/// `Base` uses the 2-bit code `A=0, C=1, T=2, G=3` (the ordering used by the paper's
/// compaction example), so packed sequences compare in the same order the paper's
/// invalidation check assumes.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::Base;
///
/// let b = Base::from_char('g').unwrap();
/// assert_eq!(b, Base::G);
/// assert_eq!(b.complement(), Base::C);
/// assert_eq!(b.to_char(), 'G');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[derive(Default)]
pub enum Base {
    /// Adenine (code 0).
    #[default]
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Thymine (code 2).
    T = 2,
    /// Guanine (code 3).
    G = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::T, Base::G];

    /// Decodes a 2-bit code into a base.
    ///
    /// Only the two least-significant bits of `code` are inspected.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::T,
            _ => Base::G,
        }
    }

    /// Returns the 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a base from an ASCII character (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`], naming `c` as written, for any
    /// character other than `A`, `C`, `G`, `T` (in either case).
    pub fn from_char(c: char) -> Result<Base, GenomeError> {
        u8::try_from(c)
            .ok()
            .and_then(code_of_ascii)
            .map(Base::from_code)
            .ok_or(GenomeError::InvalidBase {
                character: c,
                position: None,
            })
    }

    /// Returns the uppercase ASCII character for this base.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::T => 'T',
            Base::G => 'G',
        }
    }

    /// Returns the Watson–Crick complement (`A↔T`, `C↔G`).
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::T => Base::A,
            Base::C => Base::G,
            Base::G => Base::C,
        }
    }

    /// Returns a base different from `self`, selected by `choice` (0..3).
    ///
    /// Used by the read simulator to inject substitution errors: the three possible
    /// substitutions are indexed 0, 1, 2; values ≥ 3 wrap around.
    #[inline]
    pub fn substitute(self, choice: u8) -> Base {
        let mut others = [Base::A; 3];
        let mut n = 0;
        for b in Base::ALL {
            if b != self {
                others[n] = b;
                n += 1;
            }
        }
        others[(choice % 3) as usize]
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl TryFrom<char> for Base {
    type Error = GenomeError;

    fn try_from(value: char) -> Result<Self, Self::Error> {
        Base::from_char(value)
    }
}

impl From<Base> for char {
    fn from(value: Base) -> Self {
        value.to_char()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn char_round_trip_upper_and_lower() {
        for (c, b) in [
            ('A', Base::A),
            ('C', Base::C),
            ('T', Base::T),
            ('G', Base::G),
        ] {
            assert_eq!(Base::from_char(c).unwrap(), b);
            assert_eq!(Base::from_char(c.to_ascii_lowercase()).unwrap(), b);
            assert_eq!(b.to_char(), c);
        }
    }

    #[test]
    fn invalid_char_is_rejected() {
        assert!(Base::from_char('N').is_err());
        assert!(Base::from_char('x').is_err());
        assert!(Base::from_char('-').is_err());
    }

    #[test]
    fn invalid_char_is_reported_as_written() {
        for c in ['x', 'n', 'N', '-', 'é', 'Ā', '\u{1F9EC}'] {
            assert_eq!(
                Base::from_char(c),
                Err(GenomeError::InvalidBase {
                    character: c,
                    position: None,
                }),
                "{c:?}"
            );
        }
    }

    #[test]
    fn complement_is_an_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn paper_ordering_a_c_t_g() {
        // Fig. 4 of the paper assigns A=0, C=1, T=2, G=3.
        assert_eq!(Base::A.code(), 0);
        assert_eq!(Base::C.code(), 1);
        assert_eq!(Base::T.code(), 2);
        assert_eq!(Base::G.code(), 3);
        assert!(Base::A < Base::C && Base::C < Base::T && Base::T < Base::G);
    }

    #[test]
    fn substitute_never_returns_self() {
        for b in Base::ALL {
            for choice in 0..=10u8 {
                assert_ne!(b.substitute(choice), b);
            }
        }
    }

    #[test]
    fn substitute_covers_all_other_bases() {
        for b in Base::ALL {
            let mut seen = std::collections::HashSet::new();
            for choice in 0..3u8 {
                seen.insert(b.substitute(choice));
            }
            assert_eq!(seen.len(), 3);
            assert!(!seen.contains(&b));
        }
    }

    #[test]
    fn display_matches_to_char() {
        assert_eq!(Base::G.to_string(), "G");
    }
}
