pub struct Row(pub Vec<u8>);

impl Row {
    pub fn first(&self) -> u8 {
        self.0[0]
    }
}
