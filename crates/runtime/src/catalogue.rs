//! One declaration per closed set of names: [`Kind`](crate::Kind) and
//! the three metric catalogues ([`Counter`](crate::Counter),
//! [`Gauge`](crate::Gauge), [`Histogram`](crate::Histogram)).

/// Turns one table of `Variant => "name"` rows into a fieldless enum
/// (discriminants in row order) plus `COUNT`, `ALL` (row order),
/// `as_str` and its inverse `parse` — so no list, match or count is
/// kept in step with the enum by hand. Doc attributes on a row document
/// its variant.
macro_rules! catalogue {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $($(#[$row_meta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $enum {
            $(
                $(#[$row_meta])*
                #[doc = ""]
                #[doc = concat!("Named `", $name, "`.")]
                $variant,
            )+
        }

        impl $enum {
            /// Number of entries.
            pub const COUNT: usize = [$($name),+].len();

            /// Every entry, in discriminant order.
            pub const ALL: [$enum; $enum::COUNT] = [$($enum::$variant),+];

            /// The entry's name: what it is read, rendered and documented by.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($enum::$variant => $name,)+
                }
            }

            /// The entry named `name`, the inverse of `as_str`.
            pub fn parse(name: &str) -> Option<$enum> {
                $enum::ALL.into_iter().find(|e| e.as_str() == name)
            }
        }
    };
}

/// The rows of the `docs/observability.md` table whose header line is
/// `header`, each as `(names, second cell)`: the backticked names of its
/// first cell (a row may list several), then its second cell, trimmed.
#[cfg(test)]
pub(crate) fn doc_table(header: &str) -> Vec<(Vec<&'static str>, &'static str)> {
    let doc = include_str!("../../../docs/observability.md");
    let table = doc.split(header).nth(1).expect("the table");
    table
        .lines()
        .skip(2) // rest of the header line, then the |---| rule
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let mut cells = row.split('|').skip(1);
            let names = cells.next().expect("a first cell");
            let names = names.split('`').skip(1).step_by(2).collect();
            (names, cells.next().unwrap_or("").trim())
        })
        .collect()
}
