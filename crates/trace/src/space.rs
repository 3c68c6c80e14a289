//! The simulated address space: named arrays bump-allocated from address
//! zero, with explicit alignment control.
//!
//! Alignment matters because cache *conflict* misses — the effect the
//! paper's restructuring policy eliminates — are an artifact of address
//! placement: two arrays whose base addresses differ by a multiple of a
//! cache's way size contend for the same sets. The wave5 workload uses
//! `alloc_aligned` to place a few arrays at large power-of-two boundaries
//! (as Fortran common blocks routinely end up), making some loops
//! conflict-prone and others not, exactly as in the paper's Figure 3 where
//! per-loop results range from 0.9x to 4.5x.

/// Identifier of an allocated array (index into the space's array table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Metadata of one allocated array.
#[derive(Debug, Clone)]
pub struct ArrayDef {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Base byte address.
    pub base: u64,
    /// Element size in bytes.
    pub elem: u32,
    /// Number of elements.
    pub len: u64,
}

impl ArrayDef {
    /// Total footprint in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.elem as u64 * self.len
    }

    /// Byte address of element `i` (debug-asserted in range).
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        debug_assert!(
            i < self.len,
            "index {i} out of bounds for {} (len {})",
            self.name,
            self.len
        );
        self.base + i * self.elem as u64
    }
}

/// A bump allocator of simulated arrays.
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    arrays: Vec<ArrayDef>,
    next: u64,
}

impl AddressSpace {
    /// An empty space starting at address 0.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Allocate `len` elements of `elem` bytes each, cache-line (64B)
    /// aligned — the "natural", conflict-agnostic placement.
    pub fn alloc(&mut self, name: &str, elem: u32, len: u64) -> ArrayId {
        self.alloc_aligned(name, elem, len, 64)
    }

    /// Allocate with an explicit power-of-two base alignment. Large
    /// alignments (e.g. a cache way size) deliberately provoke conflicts
    /// between arrays sharing that alignment.
    pub fn alloc_aligned(&mut self, name: &str, elem: u32, len: u64, align: u64) -> ArrayId {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(elem > 0 && len > 0, "arrays must be non-empty");
        let base = (self.next + align - 1) & !(align - 1);
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDef {
            name: name.to_string(),
            base,
            elem,
            len,
        });
        self.next = base + elem as u64 * len;
        id
    }

    /// Metadata of an array.
    #[inline]
    pub fn array(&self, id: ArrayId) -> &ArrayDef {
        &self.arrays[id.0 as usize]
    }

    /// Byte address of element `i` of array `id`.
    #[inline]
    pub fn addr(&self, id: ArrayId, i: u64) -> u64 {
        self.array(id).addr(i)
    }

    /// One-past-the-end of all allocations (the footprint of the space).
    #[inline]
    pub fn extent(&self) -> u64 {
        self.next
    }

    /// Number of arrays allocated.
    #[inline]
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True when nothing has been allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Iterate over all arrays in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, &ArrayDef)> {
        self.arrays
            .iter()
            .enumerate()
            .map(|(i, d)| (ArrayId(i as u32), d))
    }
}

/// Contents of index arrays (the `IJ` of the paper's synthetic loop and the
/// particle-to-cell maps of wave5). Only arrays used by
/// [`crate::spec::Pattern::Indirect`] need entries here; the values *are*
/// the simulated data — the addresses a gather or scatter touches.
#[derive(Debug, Default, Clone)]
pub struct IndexStore {
    tables: Vec<Option<Vec<u32>>>,
}

impl IndexStore {
    /// Empty store.
    pub fn new() -> Self {
        IndexStore::default()
    }

    /// Install the contents of index array `id`.
    pub fn set(&mut self, id: ArrayId, values: Vec<u32>) {
        let idx = id.0 as usize;
        if idx >= self.tables.len() {
            self.tables.resize(idx + 1, None);
        }
        self.tables[idx] = Some(values);
    }

    /// Look up element `i` of index array `id`. Panics (with the array id)
    /// if the array has no installed contents — that is a workload bug.
    #[inline]
    pub fn get(&self, id: ArrayId, i: u64) -> u32 {
        let table = self
            .tables
            .get(id.0 as usize)
            .and_then(|t| t.as_ref())
            .unwrap_or_else(|| panic!("index array {id:?} has no contents installed"));
        table[i as usize]
    }

    /// Whether contents are installed for `id`.
    pub fn contains(&self, id: ArrayId) -> bool {
        matches!(self.tables.get(id.0 as usize), Some(Some(_)))
    }

    /// Number of installed elements for `id`, or `None` when the array has
    /// no contents. Lets analyses bound index scans without risking the
    /// panic in [`IndexStore::get`].
    pub fn len_of(&self, id: ArrayId) -> Option<usize> {
        self.table(id).map(<[u32]>::len)
    }

    /// The installed contents of `id` as one slice, or `None` when the
    /// array has none: what a scan over many elements folds, instead of
    /// a checked [`IndexStore::get`] per element.
    pub fn table(&self, id: ArrayId) -> Option<&[u32]> {
        self.tables.get(id.0 as usize).and_then(|t| t.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_disjoint_and_ordered() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 100);
        let b = s.alloc("b", 4, 50);
        let (ad, bd) = (s.array(a), s.array(b));
        assert!(ad.base + ad.bytes() <= bd.base, "arrays must not overlap");
        assert_eq!(s.extent(), bd.base + bd.bytes());
    }

    #[test]
    fn aligned_allocation_lands_on_boundary() {
        let mut s = AddressSpace::new();
        s.alloc("pad", 1, 100);
        let a = s.alloc_aligned("aligned", 8, 10, 1 << 20);
        assert_eq!(s.array(a).base % (1 << 20), 0);
    }

    #[test]
    fn element_addressing() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 100);
        let base = s.array(a).base;
        assert_eq!(s.addr(a, 0), base);
        assert_eq!(s.addr(a, 7), base + 56);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn out_of_bounds_addressing_panics_in_debug() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 10);
        let _ = s.addr(a, 10);
    }

    #[test]
    fn two_arrays_at_same_large_alignment_alias_in_a_way() {
        // This is the conflict mechanism: equal residues modulo way size.
        let mut s = AddressSpace::new();
        let way = 128 * 1024u64; // Pentium Pro L2 way size
        let a = s.alloc_aligned("a", 8, 1000, way);
        let b = s.alloc_aligned("b", 8, 1000, way);
        assert_eq!(s.array(a).base % way, s.array(b).base % way);
    }

    #[test]
    fn index_store_roundtrip() {
        let mut s = AddressSpace::new();
        let ij = s.alloc("ij", 4, 4);
        let mut idx = IndexStore::new();
        assert!(!idx.contains(ij));
        assert_eq!(idx.table(ij), None);
        idx.set(ij, vec![3, 1, 4, 1]);
        assert!(idx.contains(ij));
        assert_eq!(idx.get(ij, 2), 4);
        assert_eq!(idx.table(ij), Some(&[3, 1, 4, 1][..]));
        assert_eq!(idx.len_of(ij), Some(4));
    }

    #[test]
    #[should_panic(expected = "no contents")]
    fn missing_index_contents_panics() {
        let mut s = AddressSpace::new();
        let ij = s.alloc("ij", 4, 4);
        IndexStore::new().get(ij, 0);
    }
}
