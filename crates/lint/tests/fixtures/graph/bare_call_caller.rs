use cqshap_engine::answers;

pub struct Session {
    facts: Vec<u32>,
}

impl Session {
    fn answers(&self) -> usize {
        self.facts.len()
    }

    pub fn count(&self) -> usize {
        join_component(&self.facts)
    }
}

pub fn join_component(facts: &[u32]) -> usize {
    answers(facts)
}
