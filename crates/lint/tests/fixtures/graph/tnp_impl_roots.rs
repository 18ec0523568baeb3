use std::fmt;

pub(crate) struct Hidden;

impl fmt::Display for Hidden {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hidden")
    }
}

pub struct Shown;

impl fmt::Display for Shown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shown")
    }
}

pub(crate) trait Width {
    fn width(&self) -> usize;
}

impl Width for Vec<u8> {
    fn width(&self) -> usize {
        self.len()
    }
}
