//! `#[derive(Serialize, Deserialize)]` for the offline `serde` stand-in.
//!
//! `syn`/`quote` are unavailable offline, so the input item is parsed
//! directly from the `proc_macro` token stream. Supported shapes — named
//! structs, tuple structs and enums with unit/tuple/struct variants —
//! cover everything this workspace derives. The generated code follows
//! serde's default representations (maps for named fields, plain values
//! for newtypes, external tagging for enums), so the emitted JSON matches
//! real serde output for these types. Generic types are not supported.
//! The one container attribute understood is `#[serde(try_from = "Raw")]`
//! on `Deserialize`: read a `Raw` and convert it through `TryFrom`, so a
//! type with invariants is only ever built by its own constructor.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<(String, Variant)>),
}

#[derive(Debug)]
enum Variant {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derives the stand-in `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives the stand-in `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    let (name, shape, try_from) = match parse_item(input) {
        Ok(parsed) => parsed,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if ser {
        gen_serialize(&name, &shape)
    } else {
        match try_from {
            Some(raw) => gen_deserialize_try_from(&name, &raw),
            None => gen_deserialize(&name, &shape),
        }
    };
    code.parse().unwrap()
}

// ---- parsing ---------------------------------------------------------------

type Item = (String, Shape, Option<String>);

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let try_from = container_try_from(&tokens);
    let mut pos = 0;
    skip_attrs_and_vis(&tokens, &mut pos);

    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    pos += 1;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in derive does not support generics (type `{name}`)"
        ));
    }

    let shape = match kind.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        },
        other => return Err(format!("expected `struct` or `enum`, found `{other}`")),
    };
    Ok((name, shape, try_from))
}

/// The `Raw` of a leading `#[serde(try_from = "Raw")]` attribute.
fn container_try_from(tokens: &[TokenTree]) -> Option<String> {
    let attrs = tokens.chunks(2).take_while(
        |pair| matches!(pair, [TokenTree::Punct(p), TokenTree::Group(_)] if p.as_char() == '#'),
    );
    for pair in attrs {
        let TokenTree::Group(attr) = &pair[1] else {
            continue;
        };
        let attr: Vec<TokenTree> = attr.stream().into_iter().collect();
        let [TokenTree::Ident(path), TokenTree::Group(args)] = attr.as_slice() else {
            continue;
        };
        if path.to_string() != "serde" {
            continue;
        }
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        for window in args.windows(3) {
            if let [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(raw)] = window {
                if key.to_string() == "try_from" && eq.as_char() == '=' {
                    return Some(raw.to_string().trim_matches('"').to_owned());
                }
            }
        }
    }
    None
}

fn skip_attrs_and_vis(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1; // '#'
                if matches!(tokens.get(*pos), Some(TokenTree::Group(_))) {
                    *pos += 1; // the [...] group
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                // `pub(crate)` etc.
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1;
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` (attributes and visibility allowed per field).
/// Commas nested in `<...>` belong to the type, not the field list; paren /
/// bracket nesting arrives pre-grouped by the tokenizer.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        let field = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("expected `:` after `{field}`, found {other:?}")),
        }
        fields.push(field);
        skip_type_until_comma(&tokens, &mut pos);
    }
    Ok(fields)
}

fn skip_type_until_comma(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    *pos += 1; // consume the separator
                    return;
                }
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        count += 1;
        skip_type_until_comma(&tokens, &mut pos);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Variant)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        pos += 1;
        let variant = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Variant::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Variant::Named(parse_named_fields(g.stream())?)
            }
            _ => Variant::Unit,
        };
        // optional discriminant `= expr` (unsupported beyond skipping) and
        // the trailing comma
        while let Some(tok) = tokens.get(pos) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                pos += 1;
                break;
            }
            pos += 1;
        }
        variants.push((name, variant));
    }
    Ok(variants)
}

// ---- code generation -------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(1) => "serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, var)| match var {
                    Variant::Unit => format!(
                        "{name}::{v} => serde::Value::Str(::std::string::String::from({v:?})),"
                    ),
                    Variant::Tuple(1) => format!(
                        "{name}::{v}(__f0) => serde::Value::Map(::std::vec![(::std::string::String::from({v:?}), serde::Serialize::to_value(__f0))]),"
                    ),
                    Variant::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => serde::Value::Map(::std::vec![(::std::string::String::from({v:?}), serde::Value::Seq(::std::vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                    Variant::Named(fields) => {
                        let binds = fields.join(", ");
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => serde::Value::Map(::std::vec![(::std::string::String::from({v:?}), serde::Value::Map(::std::vec![{}]))]),",
                            entries.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize_try_from(name: &str, raw: &str) -> String {
    format!(
        "impl serde::Deserialize for {name} {{\n\
         \tfn from_value(__v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n\
         \t\tlet __raw: {raw} = serde::Deserialize::from_value(__v)?;\n\
         \t\t<{name} as ::std::convert::TryFrom<{raw}>>::try_from(__raw)\n\
         \t\t\t.map_err(|__e| serde::Error::msg(::std::string::ToString::to_string(&__e)))\n\
         \t}}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: serde::Deserialize::from_value(__v.field({f:?})?)?"))
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Shape::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(serde::Deserialize::from_value(__v)?))")
        }
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "let __items = __v.seq_n({n})?; ::std::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, var)| matches!(var, Variant::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, var)| match var {
                    Variant::Unit => None,
                    Variant::Tuple(1) => Some(format!(
                        "{v:?} => ::std::result::Result::Ok({name}::{v}(serde::Deserialize::from_value(__val)?)),"
                    )),
                    Variant::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("serde::Deserialize::from_value(&__items[{i}])?"))
                            .collect();
                        Some(format!(
                            "{v:?} => {{ let __items = __val.seq_n({n})?; ::std::result::Result::Ok({name}::{v}({})) }}",
                            items.join(", ")
                        ))
                    }
                    Variant::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("{f}: serde::Deserialize::from_value(__val.field({f:?})?)?")
                            })
                            .collect();
                        Some(format!(
                            "{v:?} => ::std::result::Result::Ok({name}::{v} {{ {} }}),",
                            inits.join(", ")
                        ))
                    }
                })
                .collect();
            format!(
                "match __v {{\n\
                 serde::Value::Str(__s) => match __s.as_str() {{\n\
                 {}\n\
                 __other => ::std::result::Result::Err(serde::Error::msg(::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }},\n\
                 serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __val) = &__entries[0];\n\
                 match __tag.as_str() {{\n\
                 {}\n\
                 __other => ::std::result::Result::Err(serde::Error::msg(::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }}\n\
                 }},\n\
                 __other => ::std::result::Result::Err(serde::Error::msg(::std::format!(\"invalid {name} representation: {{__other:?}}\"))),\n\
                 }}",
                unit_arms.join("\n"),
                tagged_arms.join("\n")
            )
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         \tfn from_value(__v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{ {body} }}\n\
         }}"
    )
}
