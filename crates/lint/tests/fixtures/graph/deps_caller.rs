pub struct Budget {
    units: Vec<u64>,
}

impl Budget {
    pub fn len(&self) -> usize {
        self.units.len()
    }
}

pub fn total_len(budgets: &[Budget]) -> usize {
    budgets.iter().map(|b| b.len()).sum()
}
