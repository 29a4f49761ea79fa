//! IPv4 addresses and prefixes with longest-prefix-match semantics.
//!
//! The simulator forwards packets by looking up destination addresses in
//! per-switch FIBs, exactly as the paper's Quagga/Linux switches do. We use
//! our own compact [`Ipv4Addr`] newtype (a `u32`) rather than
//! `std::net::Ipv4Addr` so that prefix arithmetic, masking, and hashing stay
//! branch-free and allocation-free on the simulation hot path.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// # Examples
///
/// ```
/// use dcn_net::Ipv4Addr;
///
/// let a = Ipv4Addr::new(10, 11, 0, 1);
/// assert_eq!(a.to_string(), "10.11.0.1");
/// assert_eq!(a.octets(), [10, 11, 0, 1]);
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Creates an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Creates an address from a host-order `u32`.
    pub const fn from_u32(bits: u32) -> Self {
        Ipv4Addr(bits)
    }

    /// Returns the address as a host-order `u32`.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(bits: u32) -> Self {
        Ipv4Addr(bits)
    }
}

/// The error returned when parsing an [`Ipv4Addr`] or [`Prefix`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    input: String,
    reason: &'static str,
}

impl ParseAddrError {
    fn new(input: &str, reason: &'static str) -> Self {
        ParseAddrError {
            input: input.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Ipv4Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| ParseAddrError::new(s, "expected four octets"))?;
            *slot = part
                .parse::<u8>()
                .map_err(|_| ParseAddrError::new(s, "octet is not a number in 0..=255"))?;
        }
        if parts.next().is_some() {
            return Err(ParseAddrError::new(s, "expected exactly four octets"));
        }
        Ok(Ipv4Addr::from(octets))
    }
}

/// The error returned when constructing an invalid [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeded 32 bits.
    LengthOutOfRange {
        /// The offending length.
        len: u8,
    },
    /// The address had bits set below the prefix length.
    HostBitsSet {
        /// The offending address.
        addr: Ipv4Addr,
        /// The prefix length.
        len: u8,
    },
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange { len } => {
                write!(f, "prefix length {len} exceeds 32")
            }
            PrefixError::HostBitsSet { addr, len } => {
                write!(f, "address {addr} has host bits set below /{len}")
            }
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 prefix (`address/len`) used for routing lookups.
///
/// Prefixes are always stored in canonical form: bits below the prefix
/// length are guaranteed to be zero.
///
/// # Examples
///
/// ```
/// use dcn_net::{Ipv4Addr, Prefix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dcn: Prefix = "10.11.0.0/16".parse()?;
/// assert!(dcn.contains(Ipv4Addr::new(10, 11, 4, 7)));
/// assert!(!dcn.contains(Ipv4Addr::new(10, 12, 0, 1)));
///
/// let covering: Prefix = "10.10.0.0/15".parse()?;
/// assert!(covering.covers(dcn));
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

#[allow(clippy::len_without_is_empty)] // a prefix length of 0 is the default route, not emptiness
impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        addr: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// Creates a prefix, validating that `len <= 32` and that no host bits
    /// are set.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::LengthOutOfRange`] if `len > 32` and
    /// [`PrefixError::HostBitsSet`] if `addr` is not aligned to `len`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange { len });
        }
        let masked = addr.to_u32() & mask(len);
        if masked != addr.to_u32() {
            return Err(PrefixError::HostBitsSet { addr, len });
        }
        Ok(Prefix { addr, len })
    }

    /// Creates a prefix by truncating `addr` to `len` bits.
    ///
    /// Usable in `const` contexts, which lets well-known prefixes (like the
    /// paper's DCN and covering prefixes) be constants.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub const fn truncating(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length exceeds 32");
        Prefix {
            addr: Ipv4Addr::from_u32(addr.to_u32() & mask(len)),
            len,
        }
    }

    /// A host prefix (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The network address of the prefix.
    pub fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default prefix.
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        (addr.to_u32() & mask(self.len)) == self.addr.to_u32()
    }

    /// Whether this prefix fully covers `other` (is equal or shorter and
    /// contains its network address).
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// The `n`-th address within the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in the host part.
    pub fn nth(self, n: u32) -> Ipv4Addr {
        let host_bits = 32 - self.len as u32;
        assert!(
            host_bits == 32 || n < (1u64 << host_bits) as u32,
            "host index {n} out of range for /{}",
            self.len
        );
        Ipv4Addr::from_u32(self.addr.to_u32() | n)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_str, len_str) = s
            .split_once('/')
            .ok_or_else(|| ParseAddrError::new(s, "expected address/len"))?;
        let addr: Ipv4Addr = addr_str.parse()?;
        let len: u8 = len_str
            .parse()
            .map_err(|_| ParseAddrError::new(s, "prefix length is not a number"))?;
        Prefix::new(addr, len).map_err(|_| ParseAddrError::new(s, "invalid prefix"))
    }
}

/// Returns the netmask for a prefix length.
pub(crate) const fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip_display_parse() {
        let a = Ipv4Addr::new(10, 11, 4, 200);
        let parsed: Ipv4Addr = a.to_string().parse().unwrap();
        assert_eq!(a, parsed);
    }

    #[test]
    fn addr_octets_and_u32_agree() {
        let a = Ipv4Addr::new(192, 168, 1, 42);
        assert_eq!(a.to_u32(), 0xC0A8_012A);
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
        assert_eq!(Ipv4Addr::from(a.octets()), a);
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert!("10.0.0".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.0.1".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.256".parse::<Ipv4Addr>().is_err());
        assert!("ten.0.0.1".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn prefix_new_validates_host_bits() {
        let err = Prefix::new(Ipv4Addr::new(10, 11, 0, 1), 24).unwrap_err();
        assert!(matches!(err, PrefixError::HostBitsSet { .. }));
        assert!(Prefix::new(Ipv4Addr::new(10, 11, 0, 0), 24).is_ok());
    }

    #[test]
    fn prefix_new_validates_length() {
        let err = Prefix::new(Ipv4Addr::UNSPECIFIED, 33).unwrap_err();
        assert!(matches!(err, PrefixError::LengthOutOfRange { len: 33 }));
    }

    #[test]
    fn prefix_truncating_masks_host_bits() {
        let p = Prefix::truncating(Ipv4Addr::new(10, 11, 3, 77), 16);
        assert_eq!(p.to_string(), "10.11.0.0/16");
    }

    #[test]
    fn prefix_contains_boundaries() {
        let p: Prefix = "10.11.0.0/16".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(10, 11, 0, 0)));
        assert!(p.contains(Ipv4Addr::new(10, 11, 255, 255)));
        assert!(!p.contains(Ipv4Addr::new(10, 12, 0, 0)));
        assert!(!p.contains(Ipv4Addr::new(10, 10, 255, 255)));
    }

    #[test]
    fn default_prefix_contains_everything() {
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::UNSPECIFIED));
        assert!(Prefix::DEFAULT.is_default());
    }

    #[test]
    fn covering_prefix_from_paper_covers_dcn_prefix() {
        // The paper's example: DCN prefix 10.11.0.0/16, covering prefix
        // 10.10.0.0/15.
        let dcn: Prefix = "10.11.0.0/16".parse().unwrap();
        let covering: Prefix = "10.10.0.0/15".parse().unwrap();
        assert!(covering.covers(dcn));
        assert!(!dcn.covers(covering));
        assert!(covering.contains(Ipv4Addr::new(10, 11, 4, 7)));
    }

    #[test]
    fn host_prefix_contains_only_itself() {
        let a = Ipv4Addr::new(10, 11, 0, 7);
        let p = Prefix::host(a);
        assert!(p.contains(a));
        assert!(!p.contains(Ipv4Addr::new(10, 11, 0, 8)));
        assert_eq!(p.len(), 32);
    }

    #[test]
    fn nth_addresses() {
        let p: Prefix = "10.11.3.0/24".parse().unwrap();
        assert_eq!(p.nth(1), Ipv4Addr::new(10, 11, 3, 1));
        assert_eq!(p.nth(200), Ipv4Addr::new(10, 11, 3, 200));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_out_of_range_panics() {
        let p: Prefix = "10.11.3.0/24".parse().unwrap();
        let _ = p.nth(256);
    }

    #[test]
    fn prefix_parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.10.0.0/15", "10.11.0.0/16", "10.11.4.0/24"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn prefix_ordering_is_total() {
        let a: Prefix = "10.10.0.0/15".parse().unwrap();
        let b: Prefix = "10.11.0.0/16".parse().unwrap();
        assert!(a < b);
    }
}
