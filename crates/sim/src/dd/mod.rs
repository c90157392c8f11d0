//! Decision-diagram simulator (QMDD-style), the paper's "decision diagram
//! based simulators (MQT DD)" backend [Zulehner et al., ICCAD'19].
//!
//! Quantum states are vectors encoded as reduced, weight-normalized decision
//! diagrams: a node at level `v` splits on the value of qubit `v`, edge
//! weights multiply along each root-to-terminal path, and structurally equal
//! subtrees are shared through a unique table. Gates become *matrix* DDs
//! (4 children per node); application is the cached recursive mat-vec
//! multiply. Structured states stay polynomial (GHZ is a single chain of
//! nodes at any `n`), while unstructured dense states degenerate to 2ⁿ
//! paths — the same asymmetry the relational encoding exhibits.

use std::collections::HashMap;

use qymera_circuit::{Complex64, Gate, QuantumCircuit};

use crate::traits::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};

type NodeId = u32;
const TERMINAL: NodeId = 0;

/// Weighted edge of a vector DD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VEdge {
    node: NodeId,
    w: Complex64,
}

impl VEdge {
    const ZERO: VEdge = VEdge { node: TERMINAL, w: Complex64::ZERO };

    fn terminal(w: Complex64) -> VEdge {
        VEdge { node: TERMINAL, w }
    }

    fn is_zero(&self) -> bool {
        self.node == TERMINAL && self.w.norm_sqr() == 0.0
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MEdge {
    node: NodeId,
    w: Complex64,
}

impl MEdge {
    const ZERO: MEdge = MEdge { node: TERMINAL, w: Complex64::ZERO };
}

#[derive(Debug, Clone)]
struct VNode {
    var: u32,
    children: [VEdge; 2],
}

#[derive(Debug, Clone)]
struct MNode {
    var: u32,
    /// Index `(row << 1) | col` of the 2×2 block structure.
    children: [MEdge; 4],
}

/// Hash key for weights: exact rounding to a fine grid makes nearly-equal
/// weights share nodes (tolerance-based canonicity, as in MQT DD).
fn wkey(w: Complex64) -> (i64, i64) {
    const INV_EPS: f64 = 1e12;
    ((w.re * INV_EPS).round() as i64, (w.im * INV_EPS).round() as i64)
}

type VKey = (u32, NodeId, (i64, i64), NodeId, (i64, i64));
type MKey = (u32, [(NodeId, (i64, i64)); 4]);

/// The DD package: node arenas, unique tables, operation caches.
pub struct DdPackage {
    vnodes: Vec<VNode>,
    vunique: HashMap<VKey, NodeId>,
    mnodes: Vec<MNode>,
    munique: HashMap<MKey, NodeId>,
    apply_cache: HashMap<(NodeId, NodeId), VEdge>,
    add_cache: HashMap<AddKey, VEdge>,
}

/// Key of the addition cache: both operand edges as (node, weight) pairs.
type AddKey = (NodeId, (i64, i64), NodeId, (i64, i64));

impl DdPackage {
    pub fn new() -> Self {
        // Slot 0 in both arenas is the terminal sentinel.
        DdPackage {
            vnodes: vec![VNode { var: u32::MAX, children: [VEdge::ZERO; 2] }],
            vunique: HashMap::new(),
            mnodes: vec![MNode { var: u32::MAX, children: [MEdge::ZERO; 4] }],
            munique: HashMap::new(),
            apply_cache: HashMap::new(),
            add_cache: HashMap::new(),
        }
    }

    /// Total vector nodes ever created (the arena is not garbage-collected,
    /// so this includes intermediate states).
    pub fn vnode_count(&self) -> usize {
        self.vnodes.len() - 1
    }

    /// Nodes reachable from `root` — the size of the *current* state's DD.
    pub fn reachable_vnodes(&self, root: VEdge) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root.node];
        while let Some(id) = stack.pop() {
            if id == TERMINAL || !seen.insert(id) {
                continue;
            }
            for c in &self.vnodes[id as usize].children {
                stack.push(c.node);
            }
        }
        seen.len()
    }

    /// Approximate bytes held by the package (nodes + tables + caches).
    pub fn bytes(&self) -> usize {
        self.vnodes.len() * 48
            + self.mnodes.len() * 88
            + self.vunique.len() * 64
            + self.munique.len() * 96
            + self.apply_cache.len() * 40
            + self.add_cache.len() * 56
    }

    fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.add_cache.clear();
    }

    /// Create or share a normalized vector node; returns the weighted edge.
    fn make_vnode(&mut self, var: u32, mut children: [VEdge; 2]) -> VEdge {
        let n0 = children[0].w.norm_sqr();
        let n1 = children[1].w.norm_sqr();
        if n0 == 0.0 && n1 == 0.0 {
            return VEdge::ZERO;
        }
        // Normalize by the larger-magnitude child weight (ties → child 0).
        let top = if n0 >= n1 { children[0].w } else { children[1].w };
        let inv = top.inv();
        children[0].w *= inv;
        children[1].w *= inv;
        if children[0].w.norm_sqr() == 0.0 {
            children[0].node = TERMINAL;
        }
        if children[1].w.norm_sqr() == 0.0 {
            children[1].node = TERMINAL;
        }
        let key: VKey = (
            var,
            children[0].node,
            wkey(children[0].w),
            children[1].node,
            wkey(children[1].w),
        );
        let node = match self.vunique.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.vnodes.len() as NodeId;
                self.vnodes.push(VNode { var, children });
                self.vunique.insert(key, id);
                id
            }
        };
        VEdge { node, w: top }
    }

    fn make_mnode(&mut self, var: u32, mut children: [MEdge; 4]) -> MEdge {
        let norms: Vec<f64> = children.iter().map(|e| e.w.norm_sqr()).collect();
        let best = (0..4).max_by(|&a, &b| norms[a].total_cmp(&norms[b])).unwrap();
        if norms[best] == 0.0 {
            return MEdge::ZERO;
        }
        let top = children[best].w;
        let inv = top.inv();
        for e in children.iter_mut() {
            e.w *= inv;
            if e.w.norm_sqr() == 0.0 {
                e.node = TERMINAL;
            }
        }
        let key: MKey = (
            var,
            [
                (children[0].node, wkey(children[0].w)),
                (children[1].node, wkey(children[1].w)),
                (children[2].node, wkey(children[2].w)),
                (children[3].node, wkey(children[3].w)),
            ],
        );
        let node = match self.munique.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.mnodes.len() as NodeId;
                self.mnodes.push(MNode { var, children });
                self.munique.insert(key, id);
                id
            }
        };
        MEdge { node, w: top }
    }

    /// DD for the basis state |0…0⟩ on `n` qubits.
    pub fn zero_state(&mut self, n: usize) -> VEdge {
        let mut e = VEdge::terminal(Complex64::ONE);
        for v in 0..n as u32 {
            e = self.make_vnode(v, [e, VEdge::ZERO]);
        }
        e
    }

    /// Build the matrix DD of `gate` over an `n`-qubit register.
    fn gate_dd(&mut self, gate: &Gate, n: usize) -> MEdge {
        let m = gate.matrix();
        // qubit → local bit position within the gate
        let mut pos: HashMap<usize, usize> = HashMap::new();
        for (p, &q) in gate.qubits.iter().enumerate() {
            pos.insert(q, p);
        }
        let mut memo: HashMap<(i64, usize, usize), MEdge> = HashMap::new();
        self.gate_dd_rec(n as i64 - 1, 0, 0, &pos, &m, &mut memo)
    }

    fn gate_dd_rec(
        &mut self,
        v: i64,
        r: usize,
        c: usize,
        pos: &HashMap<usize, usize>,
        m: &qymera_circuit::CMatrix,
        memo: &mut HashMap<(i64, usize, usize), MEdge>,
    ) -> MEdge {
        if v < 0 {
            return MEdge { node: TERMINAL, w: m[(r, c)] };
        }
        if let Some(e) = memo.get(&(v, r, c)) {
            return *e;
        }
        let result = match pos.get(&(v as usize)) {
            Some(&p) => {
                let mut children = [MEdge::ZERO; 4];
                for i in 0..2 {
                    for j in 0..2 {
                        children[(i << 1) | j] =
                            self.gate_dd_rec(v - 1, r | (i << p), c | (j << p), pos, m, memo);
                    }
                }
                self.make_mnode(v as u32, children)
            }
            None => {
                let diag = self.gate_dd_rec(v - 1, r, c, pos, m, memo);
                self.make_mnode(v as u32, [diag, MEdge::ZERO, MEdge::ZERO, diag])
            }
        };
        memo.insert((v, r, c), result);
        result
    }

    /// Cached vector addition.
    fn add(&mut self, a: VEdge, b: VEdge) -> VEdge {
        if a.is_zero() || a.w.norm_sqr() == 0.0 {
            return b;
        }
        if b.is_zero() || b.w.norm_sqr() == 0.0 {
            return a;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return VEdge::terminal(a.w + b.w);
        }
        // Order-normalize the commutative cache key.
        let (x, y) = if (a.node, wkey(a.w)) <= (b.node, wkey(b.w)) { (a, b) } else { (b, a) };
        let key = (x.node, wkey(x.w), y.node, wkey(y.w));
        if let Some(&e) = self.add_cache.get(&key) {
            return e;
        }
        let na = self.vnodes[x.node as usize].clone();
        let nb = self.vnodes[y.node as usize].clone();
        debug_assert_eq!(na.var, nb.var, "add on mismatched levels");
        let c0 = self.add(
            VEdge { node: na.children[0].node, w: x.w * na.children[0].w },
            VEdge { node: nb.children[0].node, w: y.w * nb.children[0].w },
        );
        let c1 = self.add(
            VEdge { node: na.children[1].node, w: x.w * na.children[1].w },
            VEdge { node: nb.children[1].node, w: y.w * nb.children[1].w },
        );
        let result = self.make_vnode(na.var, [c0, c1]);
        self.add_cache.insert(key, result);
        result
    }

    /// Cached matrix-vector application.
    pub fn apply(&mut self, m: MEdge, v: VEdge) -> VEdge {
        if m.w.norm_sqr() == 0.0 || v.w.norm_sqr() == 0.0 {
            return VEdge::ZERO;
        }
        let sub = self.apply_nodes(m.node, v.node);
        VEdge { node: sub.node, w: sub.w * m.w * v.w }
    }

    fn apply_nodes(&mut self, mn: NodeId, vn: NodeId) -> VEdge {
        if mn == TERMINAL && vn == TERMINAL {
            return VEdge::terminal(Complex64::ONE);
        }
        if let Some(&e) = self.apply_cache.get(&(mn, vn)) {
            return e;
        }
        let mnode = self.mnodes[mn as usize].clone();
        let vnode = self.vnodes[vn as usize].clone();
        debug_assert_eq!(mnode.var, vnode.var, "apply on mismatched levels");
        let mut rows = [VEdge::ZERO; 2];
        for (row, slot) in rows.iter_mut().enumerate() {
            let mut acc = VEdge::ZERO;
            for col in 0..2 {
                let me = mnode.children[(row << 1) | col];
                let ve = vnode.children[col];
                if me.w.norm_sqr() == 0.0 || ve.w.norm_sqr() == 0.0 {
                    continue;
                }
                let term = {
                    let sub = self.apply_nodes(me.node, ve.node);
                    VEdge { node: sub.node, w: sub.w * me.w * ve.w }
                };
                acc = self.add(acc, term);
            }
            *slot = acc;
        }
        let result = self.make_vnode(mnode.var, rows);
        self.apply_cache.insert((mn, vn), result);
        result
    }

    /// Amplitude of basis state `s` under edge `root`.
    pub fn amplitude(&self, root: VEdge, s: u64) -> Complex64 {
        let mut w = root.w;
        let mut node = root.node;
        while node != TERMINAL {
            let n = &self.vnodes[node as usize];
            let bit = ((s >> n.var) & 1) as usize;
            let e = n.children[bit];
            w *= e.w;
            node = e.node;
            if w.norm_sqr() == 0.0 {
                return Complex64::ZERO;
            }
        }
        w
    }

    /// Enumerate all nonzero amplitudes (cost proportional to the support).
    pub fn nonzeros(&self, root: VEdge, tol: f64) -> Vec<(u64, Complex64)> {
        let mut out = Vec::new();
        let tol2 = tol * tol;
        self.collect(root, 0u64, &mut out, tol2);
        out
    }

    fn collect(&self, e: VEdge, bits: u64, out: &mut Vec<(u64, Complex64)>, tol2: f64) {
        if e.w.norm_sqr() <= tol2 && e.node == TERMINAL {
            return;
        }
        if e.node == TERMINAL {
            if e.w.norm_sqr() > tol2 {
                out.push((bits, e.w));
            }
            return;
        }
        let n = &self.vnodes[e.node as usize];
        for bit in 0..2u64 {
            let c = n.children[bit as usize];
            if c.w.norm_sqr() == 0.0 {
                continue;
            }
            self.collect(
                VEdge { node: c.node, w: e.w * c.w },
                bits | (bit << n.var),
                out,
                tol2,
            );
        }
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new()
    }
}

/// The decision-diagram backend.
#[derive(Debug, Clone, Default)]
pub struct DdSim;

impl DdSim {
    /// Run the circuit, returning the package, final edge, and peak bytes.
    pub fn run_dd(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<(DdPackage, VEdge, usize), SimError> {
        let n = circuit.num_qubits;
        if n > 63 {
            return Err(SimError::TooManyQubits { qubits: n, max: 63 });
        }
        let mut pkg = DdPackage::new();
        let mut state = pkg.zero_state(n);
        let mut peak = pkg.bytes();
        for gate in circuit.gates() {
            let gdd = pkg.gate_dd(gate, n);
            state = pkg.apply(gdd, state);
            // Operation caches are only valid while referenced nodes exist;
            // we never GC, so they stay valid — but clear between gates to
            // bound their growth (they are gate-specific anyway).
            pkg.clear_caches();
            peak = peak.max(pkg.bytes());
            if let Some(limit) = opts.memory_limit {
                if peak > limit {
                    return Err(SimError::OutOfMemory { requested: peak, limit });
                }
            }
        }
        Ok((pkg, state, peak))
    }
}

impl Simulator for DdSim {
    fn name(&self) -> &'static str {
        "dd"
    }

    fn simulate(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<SimOutput, SimError> {
        let (pkg, root, peak) = self.run_dd(circuit, opts)?;
        Ok(SimOutput {
            num_qubits: circuit.num_qubits,
            amplitudes: Amplitudes::from_unsorted(pkg.nonzeros(root, opts.truncation_tol))?,
            memory_bytes: peak,
            detail: format!("{} vector nodes", pkg.vnode_count()),
        })
    }

    fn max_qubits(&self, _opts: &SimOptions) -> usize {
        63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVectorSim;
    use qymera_circuit::{library, CircuitBuilder};

    const TOL: f64 = 1e-8;

    fn run(c: &QuantumCircuit) -> SimOutput {
        DdSim.simulate(c, &SimOptions::default()).unwrap()
    }

    #[test]
    fn zero_state_dd() {
        let mut pkg = DdPackage::new();
        let e = pkg.zero_state(4);
        assert!((pkg.amplitude(e, 0) - Complex64::ONE).abs() < TOL);
        assert_eq!(pkg.amplitude(e, 5), Complex64::ZERO);
        assert_eq!(pkg.nonzeros(e, 1e-12).len(), 1);
    }

    #[test]
    fn ghz_dd_stays_linear_in_n() {
        let out = run(&library::ghz(30));
        assert_eq!(out.nonzero_count(), 2);
        assert!((out.probability(0) - 0.5).abs() < TOL);
        assert!((out.probability((1u64 << 30) - 1) - 0.5).abs() < TOL);
        // Node growth must be linear, not exponential: bytes for n=30 GHZ
        // should be far below a dense representation (16 GiB).
        assert!(out.memory_bytes < 10 * 1024 * 1024);
    }

    #[test]
    fn matches_statevector_on_random_circuits() {
        for seed in 0..6 {
            let c = library::random_circuit(5, 25, seed);
            let dd = run(&c);
            let sv = StateVectorSim.simulate(&c, &SimOptions::default()).unwrap();
            let diff = dd.max_amplitude_diff(&sv);
            assert!(diff < 1e-7, "seed {seed}: DD differs from dense by {diff}");
        }
    }

    #[test]
    fn structured_circuits_match_dense() {
        for c in [
            library::qft(5),
            library::w_state(5),
            library::grover(3, 4, 2),
            library::equal_superposition(6),
        ] {
            let dd = run(&c);
            let sv = StateVectorSim.simulate(&c, &SimOptions::default()).unwrap();
            assert!(dd.max_amplitude_diff(&sv) < 1e-7, "{} differs", c.name);
        }
    }

    #[test]
    fn equal_superposition_dd_is_tiny() {
        // H⊗n has maximal support but a single shared node per level.
        let (pkg, root, _) = DdSim
            .run_dd(&library::equal_superposition(20), &SimOptions::default())
            .unwrap();
        assert_eq!(
            pkg.reachable_vnodes(root),
            20,
            "uniform superposition should share one node per level"
        );
    }

    #[test]
    fn interference_cancellation_is_exact() {
        let c = CircuitBuilder::new(2).h(0).h(1).h(0).h(1).build();
        let out = run(&c);
        assert_eq!(out.nonzero_count(), 1);
        assert!((out.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn toffoli_and_permutation_gates() {
        let c = CircuitBuilder::new(3).x(0).x(1).ccx(0, 1, 2).build();
        let out = run(&c);
        assert!((out.probability(7) - 1.0).abs() < TOL);
        let c = CircuitBuilder::new(2).x(0).swap(0, 1).build();
        assert!((run(&c).probability(2) - 1.0).abs() < TOL);
    }

    #[test]
    fn memory_limit_enforced() {
        let c = library::dense_circuit(14, 5, 3);
        let opts = SimOptions { memory_limit: Some(8 * 1024), ..Default::default() };
        assert!(matches!(
            DdSim.run_dd(&c, &opts),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn norm_preserved() {
        for seed in [5, 9] {
            let out = run(&library::random_circuit(6, 40, seed));
            assert!((out.norm_sqr() - 1.0).abs() < 1e-7, "seed {seed}");
        }
    }
}
