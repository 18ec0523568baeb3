//! Relevance: the tractable and the NP-complete sides (Section 5.2).
//!
//! ```sh
//! cargo run --example relevance_hardness
//! ```
//!
//! For polarity-consistent queries, deciding whether a fact is relevant
//! (equivalently, whether its Shapley value is nonzero) is polynomial
//! (Proposition 5.7 / Algorithms 2–3). One mixed-polarity relation is
//! enough to make it NP-complete (Proposition 5.5), and so is a union of
//! individually-consistent CQ¬s (Proposition 5.8). This example runs all
//! three, including the executable SAT reductions.

use cqshap::gadgets::{prop55, prop58};
use cqshap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Tractable side: q1 on the running example ----
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)")?;
    println!("== Polynomial relevance for the polarity-consistent {q1} ==");
    for &f in db.endo_facts() {
        let pos = is_positively_relevant(&db, AnyQuery::Cq(&q1), f)?;
        let neg = is_negatively_relevant(&db, AnyQuery::Cq(&q1), f)?;
        let zero = shapley_is_zero(&db, AnyQuery::Cq(&q1), f)?;
        println!(
            "  {:<22} positively: {:<5} negatively: {:<5} Shapley = 0: {}",
            db.render_fact(f),
            pos,
            neg,
            zero
        );
    }

    // ---- Example 5.3: relevant yet zero Shapley (mixed polarity) ----
    let db2 = Database::parse("endo R(1, 2)\nendo R(2, 1)\n")?;
    let q53 = parse_cq("q() :- R(x, y), !R(y, x)")?;
    let f = db2.find_fact("R", &["1", "2"]).expect("fact exists");
    let (pos, neg) = brute_force_relevance(&db2, AnyQuery::Cq(&q53), f, 24)?;
    let v = shapley_by_permutations(&db2, AnyQuery::Cq(&q53), f, 9, None)?;
    println!("\n== Example 5.3: {q53} ==");
    println!("  R(1,2): positively relevant: {pos}, negatively relevant: {neg}, Shapley = {v}");
    assert!(pos && neg && v.is_zero());

    // ---- Proposition 5.5: SAT lives inside relevance for q_RST¬R ----
    println!("\n== Proposition 5.5: (2+,2−,4+−)-SAT ⟺ relevance to q_RST¬R ==");
    let q = prop55::qrst_nr_query();
    println!("  query: {q}");
    for seed in [1u64, 2, 3, 4] {
        let formula = cqshap::workloads::formulas::random_224(4, 6, seed);
        let (dbf, tf) = prop55::build_relevance_instance(&formula)?;
        let (rel_pos, _) = brute_force_relevance(&dbf, AnyQuery::Cq(&q), tf, 24)?;
        let sat = formula.is_satisfiable();
        println!("  {formula}");
        println!("    satisfiable: {sat:<5}  T(c) relevant: {rel_pos}");
        assert_eq!(sat, rel_pos);
    }

    // The Lemma D.1 chain: 3-colorability → SAT → relevance.
    println!("\n== Lemma D.1 chain: 3-colorability → (2+,2−,4+−)-SAT ==");
    use cqshap::gadgets::coloring::{coloring_to_3p2n, to_224, Graph};
    let triangle = Graph::new(3, vec![(0, 1), (1, 2), (0, 2)]);
    let k4 = Graph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    for (name, g) in [("triangle", &triangle), ("K4", &k4)] {
        let f224 = to_224(&coloring_to_3p2n(g));
        println!(
            "  {name}: 3-colorable: {:<5} reduced formula satisfiable: {}",
            g.is_three_colorable(),
            f224.is_satisfiable()
        );
        assert_eq!(g.is_three_colorable(), f224.is_satisfiable());
    }

    // ---- Proposition 5.8: unions of consistent CQ¬s are hard too ----
    println!("\n== Proposition 5.8: 3SAT ⟺ relevance of R(0) to q_SAT ==");
    let u = prop58::qsat_query();
    for d in u.disjuncts() {
        println!(
            "  {d}   (polarity consistent: {})",
            is_polarity_consistent(d)
        );
    }
    println!(
        "  whole union polarity consistent: {}",
        cqshap::query::analysis::is_polarity_consistent_union(&u)
    );
    for seed in [10u64, 20] {
        let f3 = cqshap::workloads::formulas::random_3sat(3, 9, seed);
        let (dbf, r0) = prop58::build_relevance_instance(&f3)?;
        let (rel_pos, _) = brute_force_relevance(&dbf, AnyQuery::Union(&u), r0, 24)?;
        println!("  {f3}");
        println!(
            "    satisfiable: {:<5}  R(0) relevant: {rel_pos}",
            f3.is_satisfiable()
        );
        assert_eq!(f3.is_satisfiable(), rel_pos);
    }
    println!("\nall reductions agree with the DPLL ground truth ✓");
    Ok(())
}
