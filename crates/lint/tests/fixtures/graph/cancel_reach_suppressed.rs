pub fn entry(budget: &Budget) -> u64 {
    hot()
}

// cqshap-lint: allow(cancellation-reachability) -- bounded: exactly four steps
fn hot() -> u64 {
    let mut acc = 0;
    for i in 0..4 {
        acc += step(i);
    }
    acc
}

fn step(i: u64) -> u64 {
    i
}
