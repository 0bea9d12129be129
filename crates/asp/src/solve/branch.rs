//! EVSIDS branching of the CDCL engine: variable activities and an indexed
//! binary heap of atoms in branching order.
//!
//! The engine branches on the unassigned atom that comes first in the
//! order: the highest activity, then a choice atom over a non-choice one,
//! then the lowest id. The order is total, so the heap's top is exactly the
//! atom a linear scan in id order picks ([`Branching::scan`], the heap's
//! oracle), whatever the order of insertions was.
//!
//! The heap is lazy. Assigning an atom leaves it in place, and popping
//! discards assigned atoms; a backjump re-inserts the atoms it unassigns.
//! A call builds it at its first decision from the atoms still unassigned,
//! so a call that decides little after a large level-0 propagation never
//! pays for the atoms that propagation fixed.

/// Position of an atom that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Activities and the branching heap.
#[derive(Debug)]
pub(super) struct Branching {
    /// EVSIDS activity per variable (atoms, then body variables).
    activity: Vec<f64>,
    /// Per atom: whether it heads a choice rule.
    is_choice: Vec<bool>,
    /// Whether the heap holds every unassigned atom of the current call.
    built: bool,
    heap: Vec<u32>,
    /// Per atom: its position in `heap`, or [`ABSENT`] (empty until the
    /// first build).
    pos: Vec<u32>,
}

impl Branching {
    /// Zero activity for `n_vars` variables; `is_choice` has one entry per
    /// atom.
    pub(super) fn new(n_vars: usize, is_choice: Vec<bool>) -> Self {
        Branching {
            activity: vec![0.0; n_vars],
            is_choice,
            built: false,
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Whether atom `a` is branched on before atom `b`.
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        if x != y {
            return x > y;
        }
        match (self.is_choice[a as usize], self.is_choice[b as usize]) {
            (true, false) => true,
            (false, true) => false,
            _ => a < b,
        }
    }

    /// The first of `atoms`, given in ascending id order, by the former
    /// linear scan: a later atom replaces the best so far only with a
    /// higher activity, or an equal one as a choice atom against a
    /// non-choice one. It shares no code with the heap's order.
    pub(super) fn scan(&self, atoms: impl IntoIterator<Item = u32>) -> Option<u32> {
        let (act, choice) = (&self.activity, &self.is_choice);
        atoms.into_iter().reduce(|b, a| {
            let (ai, bi) = (a as usize, b as usize);
            let better = act[ai] > act[bi] || (act[ai] == act[bi] && choice[ai] && !choice[bi]);
            if better {
                a
            } else {
                b
            }
        })
    }

    /// Add `inc` to the activity of variable `v`.
    pub(super) fn bump(&mut self, v: u32, inc: f64) {
        self.activity[v as usize] += inc;
        if !self.built {
            return;
        }
        // Body variables and popped atoms are not in the heap.
        if let Some(&p) = self.pos.get(v as usize) {
            if p != ABSENT {
                self.sift_up(p as usize);
            }
        }
    }

    /// Multiply every activity by `factor`. A rescale can turn distinct
    /// activities into equal ones, so the heap is reordered.
    pub(super) fn rescale(&mut self, factor: f64) {
        for a in &mut self.activity {
            *a *= factor;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Whether the heap was built in the current call.
    pub(super) fn is_built(&self) -> bool {
        self.built
    }

    /// Forget the heap until the next [`build`](Self::build): a new call
    /// starts from a fresh assignment.
    pub(super) fn invalidate(&mut self) {
        self.built = false;
    }

    /// Make the heap hold exactly `atoms`.
    pub(super) fn build(&mut self, atoms: impl IntoIterator<Item = u32>) {
        for &a in &self.heap {
            self.pos[a as usize] = ABSENT;
        }
        self.heap.clear();
        self.pos.resize(self.is_choice.len(), ABSENT);
        for a in atoms {
            self.pos[a as usize] = self.heap.len() as u32;
            self.heap.push(a);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
        self.built = true;
    }

    /// Put atom `a` back, if the heap is built and `a` is not in it.
    pub(super) fn insert(&mut self, a: u32) {
        if !self.built || self.pos[a as usize] != ABSENT {
            return;
        }
        self.pos[a as usize] = self.heap.len() as u32;
        self.heap.push(a);
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the first atom in the order.
    pub(super) fn pop(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(slot) => std::mem::replace(slot, last),
            None => last,
        };
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let a = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(a, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = a;
        self.pos[a as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let a = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.before(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.before(c, a) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = a;
        self.pos[a as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::Branching;

    /// Pop every atom, checking each against the scan over what is left
    /// (`left` ascending).
    fn drain(b: &mut Branching, mut left: Vec<u32>) -> Vec<u32> {
        let mut popped = Vec::new();
        while let Some(a) = b.pop() {
            assert_eq!(
                Some(a),
                b.scan(left.iter().copied()),
                "heap top is the scan's pick"
            );
            left.retain(|&x| x != a);
            popped.push(a);
        }
        assert!(left.is_empty(), "every atom popped once");
        popped
    }

    #[test]
    fn ties_break_by_choice_then_lower_id() {
        // Atoms 0..6: 1 and 4 are choice atoms; 2 and 5 share the top
        // activity, the rest tie at zero.
        let mut b = Branching::new(6, vec![false, true, false, false, true, false]);
        b.bump(2, 3.0);
        b.bump(5, 3.0);
        assert!(
            b.before(2, 5) && !b.before(5, 2),
            "equal activity: lower id"
        );
        assert!(
            b.before(4, 3) && !b.before(3, 4),
            "equal activity: a choice atom first, whatever its id"
        );
        assert!(b.before(5, 1) && !b.before(1, 5), "activity first");
        // Inserted out of id order: the order is total, so the pops do
        // not depend on it.
        b.build([5, 3, 0, 4, 2, 1]);
        assert_eq!(
            drain(&mut b, (0..6).collect()),
            vec![2, 5, 1, 4, 0, 3],
            "activity, then choice atoms, then lower ids"
        );
    }

    #[test]
    fn bumps_reinserts_and_rescales_keep_the_scan_order() {
        let n = 40u32;
        let mut b = Branching::new(n as usize + 3, (0..n).map(|i| i % 3 == 0).collect());
        // Atoms 30 and 31 start with tiny distinct activities.
        for v in 0..n {
            let act = match v {
                30 => 1e-300,
                31 => 2e-300,
                _ => f64::from((v * 7) % 5),
            };
            b.bump(v, act);
        }
        b.build(0..n);
        // Pop a few, as decisions do, and put some back, as backjumps do.
        let first: Vec<u32> = (0..5).map(|_| b.pop().unwrap()).collect();
        for &a in &first[..3] {
            b.insert(a);
            b.insert(a); // already present: no duplicate
        }
        // Bump atoms in the heap, one popped atom, and a body variable.
        for v in [7, 13, 21, first[4], n + 1] {
            b.bump(v, 2.5);
        }
        // A rescale that underflows: the activities of atoms 30 and 31
        // both become zero, so the choice tie-break now orders them.
        assert!(b.before(31, 30));
        b.rescale(1e-100);
        assert_eq!(b.activity[30], b.activity[31]);
        let left: Vec<u32> = (0..n).filter(|a| !first[3..].contains(a)).collect();
        let popped = drain(&mut b, left);
        let (p30, p31) = (
            popped.iter().position(|&a| a == 30),
            popped.iter().position(|&a| a == 31),
        );
        assert!(p30 < p31, "the choice atom 30 comes first once tied");
    }

    #[test]
    fn an_unbuilt_heap_ignores_inserts() {
        let mut b = Branching::new(2, vec![false, false]);
        b.insert(0);
        b.bump(1, 1.0);
        assert_eq!(b.pop(), None);
        b.build([0, 1]);
        b.invalidate();
        assert!(!b.is_built());
        b.build([0]);
        assert_eq!(b.pop(), Some(0));
        assert_eq!(b.pop(), None);
    }
}
