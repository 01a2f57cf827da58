//! The packed PDN encoding against an oracle: a plain recursive tree,
//! normalized the way `Pdn::series`/`Pdn::parallel` promise (same-kind
//! children spliced, singletons unwrapped), with its own width, height,
//! conduction, rendering, net numbering and discharge-point analysis.
//! Junctions in the tree are addressed by child-index paths; each is
//! translated to the word offset of its series node before comparing.

use proptest::prelude::*;
use soi_domino::domino::{JunctionRef, Pdn, Phase, Signal};
use soi_domino::pbe::points;

/// A generated network before normalization: what the test asks the
/// constructors to build.
#[derive(Debug, Clone)]
enum Raw {
    Leaf(usize, bool),
    Series(Vec<Raw>),
    Parallel(Vec<Raw>),
}

/// The oracle: an owned recursive tree.
#[derive(Debug, Clone, PartialEq)]
enum Tree {
    T(Signal),
    S(Vec<Tree>),
    P(Vec<Tree>),
}

impl Tree {
    fn join(children: Vec<Tree>, series: bool) -> Tree {
        let mut flat = Vec::new();
        for child in children {
            match child {
                Tree::S(inner) if series => flat.extend(inner),
                Tree::P(inner) if !series => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            1 => flat.pop().expect("one child"),
            _ if series => Tree::S(flat),
            _ => Tree::P(flat),
        }
    }

    fn children(&self) -> &[Tree] {
        match self {
            Tree::T(_) => &[],
            Tree::S(c) | Tree::P(c) => c,
        }
    }

    fn words(&self) -> usize {
        1 + self.children().iter().map(Tree::words).sum::<usize>()
    }

    fn width(&self) -> u32 {
        match self {
            Tree::T(_) => 1,
            Tree::S(c) => c.iter().map(Tree::width).max().unwrap_or(1),
            Tree::P(c) => c.iter().map(Tree::width).sum(),
        }
    }

    fn height(&self) -> u32 {
        match self {
            Tree::T(_) => 1,
            Tree::S(c) => c.iter().map(Tree::height).sum(),
            Tree::P(c) => c.iter().map(Tree::height).max().unwrap_or(1),
        }
    }

    fn transistors(&self) -> u32 {
        match self {
            Tree::T(_) => 1,
            Tree::S(c) | Tree::P(c) => c.iter().map(Tree::transistors).sum(),
        }
    }

    fn conducts(&self, value: &impl Fn(Signal) -> bool) -> bool {
        match self {
            Tree::T(s) => value(*s),
            Tree::S(c) => c.iter().all(|t| t.conducts(value)),
            Tree::P(c) => c.iter().any(|t| t.conducts(value)),
        }
    }

    fn render(&self) -> String {
        let (c, sep) = match self {
            Tree::T(s) => return s.to_string(),
            Tree::S(c) => (c, " * "),
            Tree::P(c) => (c, " + "),
        };
        let parts: Vec<String> = c.iter().map(Tree::render).collect();
        format!("({})", parts.join(sep))
    }

    /// Word offset of the node at `path`: the pre-order position.
    fn offset(&self, path: &[u32]) -> u32 {
        let (mut node, mut at) = (self, 0);
        for &step in path {
            at += 1;
            for sibling in &node.children()[..step as usize] {
                at += sibling.words();
            }
            node = &node.children()[step as usize];
        }
        at as u32
    }

    /// Net numbering of the original flattening: depth-first, a fresh net
    /// per series junction, allocated before its upper child is walked.
    fn flatten(&self, path: &mut Vec<u32>, nets: &mut u32, out: &mut Vec<(Vec<u32>, u32, u32)>) {
        match self {
            Tree::T(_) => {}
            Tree::S(c) => {
                for (i, child) in c.iter().enumerate() {
                    if i + 1 < c.len() {
                        out.push((path.clone(), i as u32, *nets));
                        *nets += 1;
                    }
                    path.push(i as u32);
                    child.flatten(path, nets, out);
                    path.pop();
                }
            }
            Tree::P(c) => {
                for (i, child) in c.iter().enumerate() {
                    path.push(i as u32);
                    child.flatten(path, nets, out);
                    path.pop();
                }
            }
        }
    }
}

/// The discharge-point fold as it was written on trees, with junctions
/// addressed by path — the reference `points::analyze` must reproduce.
fn analyze_ref(
    tree: &Tree,
    path: &mut Vec<u32>,
    potential: &mut Vec<(Vec<u32>, u32)>,
    committed: &mut Vec<(Vec<u32>, u32)>,
) -> bool {
    match tree {
        Tree::T(_) => false,
        Tree::P(children) => {
            for (i, child) in children.iter().enumerate() {
                path.push(i as u32);
                analyze_ref(child, path, potential, committed);
                path.pop();
            }
            true
        }
        Tree::S(children) => {
            let last = children.len() - 1;
            path.push(last as u32);
            let par_b = analyze_ref(&children[last], path, potential, committed);
            path.pop();
            for i in (0..last).rev() {
                let mut scratch = Vec::new();
                path.push(i as u32);
                let top_par_b = analyze_ref(&children[i], path, &mut scratch, committed);
                path.pop();
                committed.append(&mut scratch);
                let junction = (path.clone(), i as u32);
                if top_par_b {
                    committed.push(junction);
                } else {
                    potential.push(junction);
                }
            }
            par_b
        }
    }
}

fn signal(index: usize, neg: bool) -> Signal {
    if neg {
        Signal::input_neg(index)
    } else {
        Signal::input(index)
    }
}

fn build_tree(raw: &Raw) -> Tree {
    match raw {
        Raw::Leaf(i, neg) => Tree::T(signal(*i, *neg)),
        Raw::Series(c) => Tree::join(c.iter().map(build_tree).collect(), true),
        Raw::Parallel(c) => Tree::join(c.iter().map(build_tree).collect(), false),
    }
}

fn build_pdn(raw: &Raw) -> Pdn {
    match raw {
        Raw::Leaf(i, neg) => Pdn::transistor(signal(*i, *neg)),
        Raw::Series(c) => Pdn::series(c.iter().map(build_pdn).collect()),
        Raw::Parallel(c) => Pdn::parallel(c.iter().map(build_pdn).collect()),
    }
}

/// Networks over at most 6 inputs, at most 4 levels of series/parallel
/// nesting, with singleton and same-kind children the constructors must
/// normalize away.
fn raw_strategy() -> impl Strategy<Value = Raw> {
    let leaf = (0usize..6, any::<bool>()).prop_map(|(i, neg)| Raw::Leaf(i, neg));
    let inner = leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Raw::Series),
            prop::collection::vec(inner, 1..4).prop_map(Raw::Parallel),
        ]
    });
    prop_oneof![
        prop::collection::vec(inner.clone(), 1..5).prop_map(Raw::Series),
        prop::collection::vec(inner, 1..5).prop_map(Raw::Parallel),
    ]
}

fn to_ref(tree: &Tree, (path, index): &(Vec<u32>, u32)) -> JunctionRef {
    JunctionRef::new(tree.offset(path), *index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packed_pdns_match_the_recursive_oracle(raw in raw_strategy()) {
        let tree = build_tree(&raw);
        let pdn = build_pdn(&raw);

        prop_assert_eq!(pdn.words().len(), tree.words());
        prop_assert_eq!(pdn.width(), tree.width());
        prop_assert_eq!(pdn.height(), tree.height());
        prop_assert_eq!(pdn.transistor_count(), tree.transistors());
        prop_assert_eq!(pdn.to_string(), tree.render());
        for bits in 0..64u32 {
            let value = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(bits >> index & 1 == 1),
                Signal::Gate(_) => unreachable!(),
            };
            prop_assert_eq!(pdn.conducts(&value), tree.conducts(&value));
        }
        let signals: Vec<Signal> = pdn.signals().collect();
        prop_assert_eq!(signals.len() as u32, tree.transistors());
        prop_assert!(signals.iter().all(|s| matches!(s, Signal::Input { index, phase }
            if *index < 6 && matches!(phase, Phase::Pos | Phase::Neg))));

        let graph = pdn.flatten();
        let mut nets = 2;
        let mut junctions = Vec::new();
        tree.flatten(&mut Vec::new(), &mut nets, &mut junctions);
        prop_assert_eq!(graph.net_count(), nets as usize);
        prop_assert_eq!(graph.junctions().count(), junctions.len());
        for (path, index, net) in &junctions {
            let j = JunctionRef::new(tree.offset(path), *index);
            prop_assert_eq!(graph.junction_net(&j).map(|n| n.0), Some(*net));
            prop_assert!(pdn.view().has_junction(j));
        }

        let (mut potential, mut committed) = (Vec::new(), Vec::new());
        let par_b = analyze_ref(&tree, &mut Vec::new(), &mut potential, &mut committed);
        let analysis = points::analyze(&pdn);
        prop_assert_eq!(analysis.par_b, par_b);
        let committed: Vec<JunctionRef> = committed.iter().map(|j| to_ref(&tree, j)).collect();
        let potential: Vec<JunctionRef> = potential.iter().map(|j| to_ref(&tree, j)).collect();
        prop_assert_eq!(&analysis.committed, &committed);
        prop_assert_eq!(&analysis.potential, &potential);
    }
}
