pub struct TierPolicy {
    pub delta: f64,
}

fn delta() -> u8 {
    maybe().unwrap()
}

fn maybe() -> Option<u8> {
    None
}

pub fn hoeffding_radius(delta: f64) -> f64 {
    (2.0 / delta).ln()
}

pub fn halved(policy: &TierPolicy) -> TierPolicy {
    TierPolicy {
        delta: policy.delta / 2.0,
    }
}

pub fn doubled() -> f64 {
    let delta = 0.25;
    delta * 2.0
}
