//! Golden-source regression test for the paper's central artifact: the
//! complete generated PBE implementation (use case 3). Any change to the
//! generator's output shape shows up here as a diff. The expected text is
//! the embedded pack's golden file, shared with `golden_catalogue.rs`.

use cognicryptgen::core::generate;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases;

const EXPECTED: &str = include_str!("golden/jca@v2/uc03.java");

#[test]
fn pbe_byte_arrays_generates_exactly_the_golden_source() {
    let generated = generate(
        &usecases::use_case(3).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generation succeeds");
    assert_eq!(generated.java_source, EXPECTED);
}

#[test]
fn generation_is_deterministic() {
    let a = generate(
        &usecases::use_case(3).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .unwrap();
    let b = generate(
        &usecases::use_case(3).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .unwrap();
    assert_eq!(a.java_source, b.java_source);
    assert_eq!(a.unit, b.unit);
}
