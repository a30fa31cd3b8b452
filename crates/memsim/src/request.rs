//! Memory requests.

/// Whether a request reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (MacroNode fetch, TransferNode fetch).
    Read,
    /// A write (MacroNode write-back).
    Write,
}

/// One memory request at cache-line granularity grouping metadata.
///
/// A MacroNode larger than one line produces several requests sharing the same
/// `mn_slot` tag, mirroring the paper's `mn_idx` trace grouping (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical byte address of the first byte accessed.
    pub addr: u64,
    /// Number of bytes accessed (usually one line).
    pub size_bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// MacroNode slot this access belongs to (the paper's `mn_idx`).
    pub mn_slot: usize,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(addr: u64, size_bytes: u32, mn_slot: usize) -> Self {
        MemRequest {
            addr,
            size_bytes,
            kind: AccessKind::Read,
            mn_slot,
        }
    }

    /// Creates a write request.
    pub fn write(addr: u64, size_bytes: u32, mn_slot: usize) -> Self {
        MemRequest {
            addr,
            size_bytes,
            kind: AccessKind::Write,
            mn_slot,
        }
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = MemRequest::read(0x1000, 64, 7);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.is_write());
        let w = MemRequest::write(0x2000, 64, 7);
        assert!(w.is_write());
        assert_eq!(w.mn_slot, 7);
    }
}
