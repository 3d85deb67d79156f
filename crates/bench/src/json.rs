//! JSON for experiment rows.
//!
//! [`crate::impl_to_json`] turns a named-field struct into a [`JsonValue`]
//! object, and the workspace's one codec, [`render`] from `rt_engine::json`,
//! writes it. Fields convert through `JsonValue::from`, so numbers,
//! strings, booleans and options of them are supported; non-finite floats
//! render as `null`.

pub use rt_engine::json::{render, JsonValue};

/// Implements `From<&T> for JsonValue` for a named-field struct `T`,
/// building a JSON object with the field names as keys.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl From<&$ty> for $crate::json::JsonValue {
            fn from(row: &$ty) -> Self {
                $crate::json::JsonValue::Obj(vec![$(
                    (
                        stringify!($field).to_string(),
                        $crate::json::JsonValue::from(row.$field.clone()),
                    ),
                )+])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_and_structs_render() {
        struct Row {
            x: usize,
            y: f64,
            label: String,
            best: Option<f64>,
        }
        crate::impl_to_json!(Row { x, y, label, best });
        let rows = [
            Row {
                x: 1,
                y: 0.5,
                label: "a".to_string(),
                best: Some(0.25),
            },
            Row {
                x: 2,
                y: f64::NAN,
                label: "b\"".to_string(),
                best: None,
            },
        ];
        let doc = JsonValue::Arr(rows.iter().map(JsonValue::from).collect());
        assert_eq!(
            render(&doc),
            r#"[{"x":1,"y":0.5,"label":"a","best":0.25},{"x":2,"y":null,"label":"b\"","best":null}]"#
        );
    }
}
