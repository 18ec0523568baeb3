pub fn answers(facts: &[u32]) -> usize {
    facts.len()
}
