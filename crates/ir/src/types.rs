//! The IR type system.
//!
//! Types are interned in a [`TypeTable`] and referred to by [`TypeId`], the
//! same way LLVM contexts unique their types. Interning makes structural
//! equality an integer comparison and lets the STI analysis key maps by type
//! cheaply.
//!
//! The modelled universe covers exactly what the paper's analysis
//! distinguishes: scalar types, pointers (including pointer-to-pointer at any
//! depth), named composite (struct) types, sized arrays, and function types
//! used through function pointers.

use std::collections::HashMap;
use std::fmt;

/// Interned reference to a [`Type`] inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Reference to a [`StructDef`] inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A function signature: return type plus parameter types.
///
/// Signatures appear both on [`crate::Function`] definitions and inside
/// [`Type::Func`] for function-pointer types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncSig {
    /// Return type ([`TypeTable::void`] for `void` functions).
    pub ret: TypeId,
    /// Parameter types, in order.
    pub params: Vec<TypeId>,
    /// Whether extra arguments are accepted (C varargs, used by `printf`
    /// style externals).
    pub varargs: bool,
}

impl FuncSig {
    /// Creates a non-varargs signature.
    pub fn new(ret: TypeId, params: Vec<TypeId>) -> Self {
        FuncSig { ret, params, varargs: false }
    }
}

/// A single IR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The absence of a value (function returns only).
    Void,
    /// 1-bit boolean (comparison results).
    Bool,
    /// 8-bit integer (`char`).
    I8,
    /// 16-bit integer (`short`).
    I16,
    /// 32-bit integer (`int`).
    I32,
    /// 64-bit integer (`long`).
    I64,
    /// 64-bit IEEE float (`double`).
    F64,
    /// Pointer to the given pointee type.
    Ptr(TypeId),
    /// A named composite type; the definition lives in the [`TypeTable`].
    Struct(StructId),
    /// Fixed-length array of an element type.
    Array(TypeId, u64),
    /// A function type; only meaningful behind a pointer.
    Func(FuncSig),
}

/// A field of a composite type, carrying the debug facts STI consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Source-level field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// Whether the field was declared `const` (read-only permission).
    pub is_const: bool,
}

/// Definition of a named composite (struct) type.
///
/// This doubles as the IR equivalent of LLVM's `!DICompositeType`: the STI
/// analysis treats the struct itself as part of the *scope* of its pointer
/// members (paper §4.4, §4.7.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Source-level struct name.
    pub name: String,
    /// Ordered field definitions.
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    /// Index of the field with the given name, if present.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// Interning table for types and struct definitions.
///
/// A fresh table always contains the scalar types, exposed through the
/// accessor methods ([`TypeTable::i32`], [`TypeTable::void`], ...), so these
/// never allocate.
#[derive(Debug, Clone)]
pub struct TypeTable {
    types: Vec<Type>,
    lookup: HashMap<Type, TypeId>,
    /// `ptr_to[t]` — the id of `t*` once interned (`u32::MAX` before).
    /// Lowering and instrumentation ask for pointer types far more often
    /// than for any other, and this answers them without hashing.
    ptr_to: Vec<u32>,
    structs: Vec<StructDef>,
    struct_names: HashMap<String, StructId>,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeTable {
    /// Creates a table pre-populated with the scalar types.
    pub fn new() -> Self {
        let mut t = TypeTable {
            types: Vec::new(),
            lookup: HashMap::new(),
            ptr_to: Vec::new(),
            structs: Vec::new(),
            struct_names: HashMap::new(),
        };
        // Order must match the scalar accessors below.
        for ty in [
            Type::Void,
            Type::Bool,
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::F64,
        ] {
            t.intern(ty);
        }
        t
    }

    /// `void`
    pub fn void(&self) -> TypeId {
        TypeId(0)
    }
    /// `bool` (i1)
    pub fn bool(&self) -> TypeId {
        TypeId(1)
    }
    /// `i8`
    pub fn i8(&self) -> TypeId {
        TypeId(2)
    }
    /// `i16`
    pub fn i16(&self) -> TypeId {
        TypeId(3)
    }
    /// `i32`
    pub fn i32(&self) -> TypeId {
        TypeId(4)
    }
    /// `i64`
    pub fn i64(&self) -> TypeId {
        TypeId(5)
    }
    /// `f64`
    pub fn f64(&self) -> TypeId {
        TypeId(6)
    }

    /// Interns a type, returning its id. Structurally equal types share ids.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(&id) = self.lookup.get(&ty) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        if let Type::Ptr(p) = ty {
            let p = p.0 as usize;
            if p >= self.ptr_to.len() {
                self.ptr_to.resize(p + 1, u32::MAX);
            }
            self.ptr_to[p] = id.0;
        }
        self.types.push(ty.clone());
        self.lookup.insert(ty, id);
        id
    }

    /// Interns a pointer to `pointee`.
    pub fn ptr(&mut self, pointee: TypeId) -> TypeId {
        match self.ptr_to.get(pointee.0 as usize) {
            Some(&id) if id != u32::MAX => TypeId(id),
            _ => self.intern(Type::Ptr(pointee)),
        }
    }

    /// Interns `void*`, the universal pointer type.
    pub fn void_ptr(&mut self) -> TypeId {
        let v = self.void();
        self.ptr(v)
    }

    /// Interns `char*` (`i8*`).
    pub fn char_ptr(&mut self) -> TypeId {
        let c = self.i8();
        self.ptr(c)
    }

    /// Interns an array type.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(Type::Array(elem, len))
    }

    /// Interns a function type from its signature.
    pub fn func(&mut self, sig: FuncSig) -> TypeId {
        self.intern(Type::Func(sig))
    }

    /// Declares a new struct; panics if the name is taken.
    ///
    /// # Panics
    /// Panics when a struct with the same name was already declared; MiniC
    /// has a single flat struct namespace.
    pub fn declare_struct(&mut self, def: StructDef) -> StructId {
        assert!(
            !self.struct_names.contains_key(&def.name),
            "duplicate struct `{}`",
            def.name
        );
        let id = StructId(self.structs.len() as u32);
        self.struct_names.insert(def.name.clone(), id);
        self.structs.push(def);
        id
    }

    /// Looks up a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.struct_names.get(name).copied()
    }

    /// The definition of a struct.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.0 as usize]
    }

    /// Mutable access to a struct definition (used when MiniC declares a
    /// struct before its body is known, e.g. self-referential nodes).
    pub fn struct_def_mut(&mut self, id: StructId) -> &mut StructDef {
        &mut self.structs[id.0 as usize]
    }

    /// The [`Type`] behind an id.
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the table holds no types (never true in practice: scalars are
    /// pre-interned).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Number of declared structs.
    pub fn struct_count(&self) -> usize {
        self.structs.len()
    }

    /// Iterator over `(StructId, &StructDef)` pairs.
    pub fn structs(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, d)| (StructId(i as u32), d))
    }

    /// Whether `id` is a pointer type.
    pub fn is_ptr(&self, id: TypeId) -> bool {
        matches!(self.get(id), Type::Ptr(_))
    }

    /// Pointee of a pointer type, if `id` is a pointer.
    pub fn pointee(&self, id: TypeId) -> Option<TypeId> {
        match self.get(id) {
            Type::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// Pointer indirection depth: `i32` is 0, `i32*` is 1, `i32**` is 2...
    pub fn ptr_depth(&self, id: TypeId) -> u32 {
        let mut depth = 0;
        let mut cur = id;
        while let Type::Ptr(p) = self.get(cur) {
            depth += 1;
            cur = *p;
        }
        depth
    }

    /// Whether values of this type are function pointers.
    pub fn is_func_ptr(&self, id: TypeId) -> bool {
        match self.get(id) {
            Type::Ptr(p) => matches!(self.get(*p), Type::Func(_)),
            _ => false,
        }
    }

    /// Size of the type in bytes under the VM's data layout, the one rule
    /// the workspace shares: pointers, `long` and `double` are 8 bytes,
    /// `int` 4, `short` 2, `char` and `bool` 1, `void` and bare function
    /// types 0; a struct is the sum of its field sizes (no padding) and an
    /// array its element size times its length, all saturating. A struct
    /// that contains itself by value (directly, or through a field that
    /// does) has no finite size and reads `u64::MAX`; [`crate::check_ids`]
    /// reports it. Every size, offset and global address is read from one
    /// iterative pass that sizes each type once.
    pub fn size_of(&self, id: TypeId) -> u64 {
        Sizer::new(self).size(id).unwrap_or(u64::MAX)
    }

    /// Byte offset of field `idx` inside struct `sid` (saturating).
    ///
    /// # Panics
    /// Panics when `idx` is out of range for the struct.
    pub fn field_offset(&self, sid: StructId, idx: usize) -> u64 {
        let def = self.struct_def(sid);
        assert!(idx < def.fields.len(), "field index out of range");
        let mut sizer = Sizer::new(self);
        def.fields[..idx]
            .iter()
            .fold(0, |off, f| off.saturating_add(sizer.size(f.ty).unwrap_or(u64::MAX)))
    }

    /// Precomputes the data layout of every interned type and struct, so
    /// per-access address arithmetic (the interpreter's `IndexAddr` /
    /// `FieldAddr` / `Alloca` paths) is an indexed load instead of a
    /// walk over struct definitions. One sizing pass sizes every type
    /// once.
    pub fn layout(&self) -> TypeLayout {
        let mut sizer = Sizer::new(self);
        let mut size = |ty| sizer.size(ty).unwrap_or(u64::MAX);
        let sizes = (0..self.types.len() as u32).map(|i| size(TypeId(i))).collect();
        let field_offsets = self
            .structs
            .iter()
            .map(|d| {
                let mut off = 0u64;
                d.fields
                    .iter()
                    .map(|f| {
                        let o = off;
                        off = off.saturating_add(size(f.ty));
                        o
                    })
                    .collect()
            })
            .collect();
        TypeLayout { sizes, field_offsets }
    }

    /// Renders a type as C-flavoured source text (`struct node*`, `void*`,
    /// `int (*)(int)`), the spelling used in reports and tables.
    pub fn display(&self, id: TypeId) -> String {
        let mut s = String::new();
        let _ = self.write_display(id, &mut s);
        s
    }

    /// Writes [`TypeTable::display`]'s spelling of a type to `w`, without
    /// building a string per nested type.
    ///
    /// # Errors
    /// Only those of `w`.
    pub fn write_display(&self, id: TypeId, w: &mut impl fmt::Write) -> fmt::Result {
        match self.get(id) {
            Type::Void => w.write_str("void"),
            Type::Bool => w.write_str("bool"),
            Type::I8 => w.write_str("char"),
            Type::I16 => w.write_str("short"),
            Type::I32 => w.write_str("int"),
            Type::I64 => w.write_str("long"),
            Type::F64 => w.write_str("double"),
            Type::Ptr(p) => {
                self.write_display(*p, w)?;
                w.write_char('*')
            }
            Type::Struct(sid) => write!(w, "struct {}", self.struct_def(*sid).name),
            Type::Array(e, n) => {
                self.write_display(*e, w)?;
                write!(w, "[{n}]")
            }
            Type::Func(sig) => {
                self.write_display(sig.ret, w)?;
                w.write_str(" (")?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        w.write_str(", ")?;
                    }
                    self.write_display(*p, w)?;
                }
                w.write_char(')')
            }
        }
    }
}

/// Frozen layout answers for a [`TypeTable`]: the size of every interned
/// type and the byte offset of every struct field, computed once by
/// [`TypeTable::layout`]. Valid for as long as the table it was built from
/// is not extended (the VM builds it after the module is final).
#[derive(Debug, Clone)]
pub struct TypeLayout {
    sizes: Vec<u64>,
    field_offsets: Vec<Vec<u64>>,
}

impl TypeLayout {
    /// Size of the type in bytes; same answer as [`TypeTable::size_of`].
    #[inline]
    pub fn size_of(&self, id: TypeId) -> u64 {
        self.sizes[id.0 as usize]
    }

    /// Byte offset of field `idx` inside struct `sid`; same answer as
    /// [`TypeTable::field_offset`].
    #[inline]
    pub fn field_offset(&self, sid: StructId, idx: usize) -> u64 {
        self.field_offsets[sid.0 as usize][idx]
    }
}

/// The one sizing pass, under the rule [`TypeTable::size_of`] states:
/// `size_of`, [`TypeTable::field_offset`], [`TypeTable::layout`],
/// [`crate::Module::global_addresses`] and `check_ids`'s cycle report all
/// read it. The walk follows by-value edges only (struct fields, array
/// elements) on an explicit stack, so it sizes each type once and never
/// recurses; a struct on a by-value cycle, or containing one by value,
/// is left unsized.
pub(crate) struct Sizer<'t> {
    types: &'t TypeTable,
    memo: HashMap<TypeId, Sizing>,
}

#[derive(Clone, Copy)]
enum Sizing {
    /// On the walk's stack: reaching it again closes a by-value cycle.
    Open,
    Done(Option<u64>),
}

impl<'t> Sizer<'t> {
    pub(crate) fn new(types: &'t TypeTable) -> Self {
        Sizer { types, memo: HashMap::new() }
    }

    /// The size of a type holding no other type by value.
    fn leaf(&self, ty: TypeId) -> Option<u64> {
        Some(match self.types.get(ty) {
            Type::Void | Type::Func(_) => 0,
            Type::Bool | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr(_) => 8,
            Type::Struct(_) | Type::Array(..) => return None,
        })
    }

    /// The `i`-th type `ty` holds by value.
    fn part(&self, ty: TypeId, i: usize) -> Option<TypeId> {
        match self.types.get(ty) {
            Type::Struct(s) => self.types.struct_def(*s).fields.get(i).map(|f| f.ty),
            Type::Array(e, _) => (i == 0).then_some(*e),
            _ => None,
        }
    }

    /// Size of `ty` in bytes; `None` when it contains itself by value.
    pub(crate) fn size(&mut self, ty: TypeId) -> Option<u64> {
        // Each frame: a type being sized, its next part, and the sum of
        // its parts so far (`None` once one is unsized).
        let mut stack: Vec<(TypeId, usize, Option<u64>)> = Vec::new();
        let mut next = Some(ty);
        loop {
            let got = match next.take() {
                Some(t) => match (self.leaf(t), self.memo.get(&t)) {
                    (Some(n), _) => Some(n),
                    (None, Some(Sizing::Done(n))) => *n,
                    (None, Some(Sizing::Open)) => None,
                    (None, None) => {
                        self.memo.insert(t, Sizing::Open);
                        stack.push((t, 1, Some(0)));
                        next = self.part(t, 0);
                        continue;
                    }
                },
                None => {
                    let (t, _, sum) = stack.pop().expect("a type is being sized");
                    let n = match self.types.get(t) {
                        Type::Array(_, len) => sum.map(|e| e.saturating_mul(*len)),
                        _ => sum,
                    };
                    self.memo.insert(t, Sizing::Done(n));
                    n
                }
            };
            let Some((t, i, sum)) = stack.last_mut() else { return got };
            *sum = sum.zip(got).map(|(a, b)| a.saturating_add(b));
            next = self.part(*t, *i);
            *i += 1;
        }
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_preinterned() {
        let t = TypeTable::new();
        assert_eq!(t.get(t.void()), &Type::Void);
        assert_eq!(t.get(t.i32()), &Type::I32);
        assert_eq!(t.get(t.f64()), &Type::F64);
    }

    #[test]
    fn interning_dedups() {
        let mut t = TypeTable::new();
        let a = t.ptr(t.i32());
        let b = t.ptr(t.i32());
        assert_eq!(a, b);
        let c = t.ptr(a);
        assert_ne!(a, c);
        assert_eq!(t.ptr_depth(c), 2);
    }

    #[test]
    fn struct_layout() {
        let mut t = TypeTable::new();
        let i32t = t.i32();
        let sid = t.declare_struct(StructDef {
            name: "node".into(),
            fields: vec![
                FieldDef { name: "key".into(), ty: i32t, is_const: false },
                FieldDef { name: "next".into(), ty: i32t, is_const: false },
            ],
        });
        let st = t.intern(Type::Struct(sid));
        assert_eq!(t.size_of(st), 8);
        assert_eq!(t.field_offset(sid, 1), 4);
        assert_eq!(t.struct_by_name("node"), Some(sid));
    }

    #[test]
    fn display_matches_c_spelling() {
        let mut t = TypeTable::new();
        let vp = t.void_ptr();
        assert_eq!(t.display(vp), "void*");
        let i32t = t.i32();
        let sig = FuncSig::new(i32t, vec![vp]);
        let f = t.func(sig);
        let fp = t.ptr(f);
        assert_eq!(t.display(fp), "int (void*)*");
    }

    #[test]
    fn func_ptr_detection() {
        let mut t = TypeTable::new();
        let void = t.void();
        let f = t.func(FuncSig::new(void, vec![]));
        let fp = t.ptr(f);
        assert!(t.is_func_ptr(fp));
        assert!(!t.is_func_ptr(t.i32()));
        let vp = t.void_ptr();
        assert!(!t.is_func_ptr(vp));
    }

    /// `chain[i]` holds `chain[i - 1]` by value, twice when `doubling`.
    fn chain(t: &mut TypeTable, n: usize, doubling: bool) -> Vec<TypeId> {
        let mut tys = vec![t.i64()];
        for i in 0..n {
            let field = |name: &str| FieldDef { name: name.into(), ty: tys[i], is_const: false };
            let mut fields = vec![field("a")];
            if doubling {
                fields.push(field("b"));
            }
            let sid = t.declare_struct(StructDef { name: format!("s{i}"), fields });
            tys.push(t.intern(Type::Struct(sid)));
        }
        tys
    }

    #[test]
    fn doubling_types_saturate_in_one_pass() {
        let mut t = TypeTable::new();
        let tys = chain(&mut t, 64, true);
        assert_eq!(t.size_of(tys[10]), 8 << 10);
        assert_eq!(t.size_of(tys[64]), u64::MAX, "2^67 bytes saturates");
        let last = StructId(63);
        assert_eq!(t.field_offset(last, 1), u64::MAX);
        let l = t.layout();
        assert_eq!(l.size_of(tys[60]), 8 << 60);
        assert_eq!(l.field_offset(last, 1), u64::MAX);
    }

    #[test]
    fn long_linear_chains_lay_out() {
        let mut t = TypeTable::new();
        let tys = chain(&mut t, 100_000, false);
        assert_eq!(t.size_of(tys[100_000]), 8);
        assert_eq!(t.layout().size_of(tys[99_999]), 8);
    }

    #[test]
    fn by_value_cycles_are_unsized_not_recursed() {
        let mut t = TypeTable::new();
        // a { b x; long y; }, b { a z[3]; }, c { a* p; b q; }
        let declare = |t: &mut TypeTable, name: &str| {
            let sid = t.declare_struct(StructDef { name: name.into(), fields: vec![] });
            (sid, t.intern(Type::Struct(sid)))
        };
        let ((a, at), (b, bt), (c, _)) =
            (declare(&mut t, "a"), declare(&mut t, "b"), declare(&mut t, "c"));
        let f = |ty| FieldDef { name: "f".into(), ty, is_const: false };
        let (i64t, a3, ap) = (t.i64(), t.array(at, 3), t.ptr(at));
        t.struct_def_mut(a).fields = vec![f(bt), f(i64t)];
        t.struct_def_mut(b).fields = vec![f(a3)];
        t.struct_def_mut(c).fields = vec![f(ap), f(bt)];
        assert_eq!(t.size_of(at), u64::MAX);
        assert_eq!(t.size_of(ap), 8, "a pointer to a cyclic struct is sized");
        assert_eq!(t.field_offset(c, 1), 8);
        let mut sizer = Sizer::new(&t);
        assert_eq!(sizer.size(at), None);
        assert_eq!(sizer.size(bt), None);
        assert_eq!(sizer.size(ap), Some(8));
        assert_eq!(t.layout().size_of(a3), u64::MAX);
    }

    #[test]
    fn array_sizes() {
        let mut t = TypeTable::new();
        let a = t.array(t.i32(), 10);
        assert_eq!(t.size_of(a), 40);
        let i8t = t.i8();
        let pa = t.ptr(i8t);
        assert_eq!(t.size_of(pa), 8);
    }
}
