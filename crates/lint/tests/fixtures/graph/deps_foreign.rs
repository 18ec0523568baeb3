pub struct Table {
    rows: Vec<String>,
}

impl Table {
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

pub fn render(table: &Table, budget: &cqshap_core::Budget) -> String {
    format!("{} rows, {} units", table.len(), budget.len())
}
