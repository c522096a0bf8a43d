//! Composition shape and interface checks on a protocol written in the
//! DSL.

use protogen_spec::{Composition, LevelSpec, Ssp};

fn toy() -> Ssp {
    protogen_dsl::parse_protocol(include_str!("toy.pgen")).unwrap()
}

#[test]
fn node_counts_multiply_fanouts() {
    let c = Composition {
        name: "t".into(),
        levels: vec![
            LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
            LevelSpec { label: "l2".into(), ssp: toy(), fanout: 3 },
        ],
    };
    assert_eq!(c.node_count(0), 6);
    assert_eq!(c.node_count(1), 3);
    assert_eq!(c.depth(), 2);
}

#[test]
fn toy_protocol_fails_interface_validation() {
    // The toy protocol has no read-write state and no store handling:
    // fine as a one-level composition, rejected as a stacked level.
    let flat = Composition {
        name: "flat".into(),
        levels: vec![LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 }],
    };
    flat.validate().unwrap();
    let stacked = Composition {
        name: "stack".into(),
        levels: vec![
            LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
            LevelSpec { label: "l2".into(), ssp: toy(), fanout: 2 },
        ],
    };
    assert!(stacked.validate().is_err());
}

#[test]
fn fanout_bounds_are_enforced() {
    let mut c = Composition {
        name: "t".into(),
        levels: vec![LevelSpec { label: "l1".into(), ssp: toy(), fanout: 9 }],
    };
    assert!(c.validate().is_err());
    c.levels[0].fanout = 0;
    assert!(c.validate().is_err());
}

/// Violation text names a directory by its level's label, so a stack
/// whose levels share one is refused, by name.
#[test]
fn duplicate_level_labels_are_refused() {
    let c = Composition {
        name: "t".into(),
        levels: vec![
            LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
            LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
        ],
    };
    let err = c.validate().unwrap_err().to_string();
    assert_eq!(err, "invalid specification: level 1 (l1): label already names level 0");
}
