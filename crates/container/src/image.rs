//! Container images.
//!
//! The paper's jobs ship as framework images (`pytorch/pytorch`,
//! `tensorflow/tensorflow`, Keras, ...) started with `docker run -d
//! <DL_job>`.  The catalog here is a small name→image map used by workload
//! generators to label containers the way the paper labels jobs, e.g.
//! "MNIST (Tensorflow)".
//!
//! A registry is immutable once built, so one instance can back an entire
//! cluster: holders keep an `Arc<ImageRegistry>`, and
//! [`shared_dl_defaults`] hands out one process-wide copy of the paper's
//! default catalog instead of re-allocating it per worker (a profile
//! showed a fresh `with_dl_defaults` per simulated worker dominating
//! cluster fixed overhead).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// An immutable image description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Repository name, e.g. `pytorch/pytorch`.
    pub name: String,
    /// Tag, e.g. `latest` or `18.09-cpu`.
    pub tag: String,
}

impl Image {
    /// Build an image reference.
    pub fn new(name: impl Into<String>, tag: impl Into<String>) -> Self {
        Image {
            name: name.into(),
            tag: tag.into(),
        }
    }

    /// Parse a `name:tag` reference; a missing tag defaults to `latest`.
    pub fn parse(reference: &str) -> Self {
        match reference.split_once(':') {
            Some((name, tag)) if !tag.is_empty() => Image::new(name, tag),
            _ => Image::new(reference.trim_end_matches(':'), "latest"),
        }
    }

    /// Canonical `name:tag` reference string.
    ///
    /// Allocates a fresh `String` per call; hot paths that already own a
    /// buffer should prefer [`Image::write_reference`] (or the `Display`
    /// impl inside a larger `write!`).
    pub fn reference(&self) -> String {
        let mut out = String::with_capacity(self.name.len() + 1 + self.tag.len());
        self.write_reference(&mut out);
        out
    }

    /// Append the canonical `name:tag` reference to `out` without
    /// allocating a fresh `String` (beyond growing `out` if needed).
    pub fn write_reference(&self, out: &mut String) {
        write!(out, "{self}").expect("writing to a String never fails");
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.tag)
    }
}

/// A local image store, keyed by reference.
///
/// Images are stored behind `Arc`s so a daemon can hand a started container
/// its image without cloning the name strings ([`ImageRegistry::get_shared`]).
#[derive(Debug, Default, Clone)]
pub struct ImageRegistry {
    images: BTreeMap<String, Arc<Image>>,
}

impl ImageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with the framework images the paper uses.
    ///
    /// Allocates a fresh catalog; cluster-scale callers should prefer
    /// [`shared_dl_defaults`], which builds this once per process.
    pub fn with_dl_defaults() -> Self {
        let mut r = Self::new();
        r.pull(Image::new("pytorch/pytorch", "latest"));
        r.pull(Image::new("tensorflow/tensorflow", "latest"));
        r.pull(Image::new("keras/keras", "latest"));
        r
    }

    /// Add (or replace) an image.
    pub fn pull(&mut self, image: Image) {
        self.images.insert(image.reference(), Arc::new(image));
    }

    /// Look up an image by `name:tag` reference.
    pub fn get(&self, reference: &str) -> Option<&Image> {
        self.images.get(reference).map(|i| &**i)
    }

    /// Look up an image by reference, sharing ownership (no string clones).
    pub fn get_shared(&self, reference: &str) -> Option<Arc<Image>> {
        self.images.get(reference).cloned()
    }

    /// True if the reference exists locally.
    pub fn contains(&self, reference: &str) -> bool {
        self.images.contains_key(reference)
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True if the registry holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Iterate over images in reference order.
    pub fn iter(&self) -> impl Iterator<Item = &Image> {
        self.images.values().map(|i| &**i)
    }
}

/// The process-wide shared copy of [`ImageRegistry::with_dl_defaults`].
///
/// Built on first use and reference-counted from then on: a 10k-worker
/// cluster pays for the default catalog once, not 10k times.  The registry
/// behind the `Arc` is immutable; callers that need a different catalog
/// build their own `Arc<ImageRegistry>`.
pub fn shared_dl_defaults() -> Arc<ImageRegistry> {
    static SHARED: OnceLock<Arc<ImageRegistry>> = OnceLock::new();
    SHARED
        .get_or_init(|| Arc::new(ImageRegistry::with_dl_defaults()))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_and_without_tag() {
        assert_eq!(
            Image::parse("pytorch/pytorch:1.0"),
            Image::new("pytorch/pytorch", "1.0")
        );
        assert_eq!(
            Image::parse("tensorflow/tensorflow"),
            Image::new("tensorflow/tensorflow", "latest")
        );
        assert_eq!(Image::parse("busybox:"), Image::new("busybox", "latest"));
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = ImageRegistry::new();
        assert!(r.is_empty());
        r.pull(Image::new("a/b", "v1"));
        assert!(r.contains("a/b:v1"));
        assert_eq!(r.get("a/b:v1").unwrap().tag, "v1");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn defaults_include_both_frameworks() {
        let r = ImageRegistry::with_dl_defaults();
        assert!(r.contains("pytorch/pytorch:latest"));
        assert!(r.contains("tensorflow/tensorflow:latest"));
    }

    #[test]
    fn display_is_reference() {
        assert_eq!(Image::new("x", "y").to_string(), "x:y");
    }

    #[test]
    fn write_reference_appends_without_clobbering() {
        let img = Image::new("pytorch/pytorch", "latest");
        let mut buf = String::from("image=");
        img.write_reference(&mut buf);
        assert_eq!(buf, "image=pytorch/pytorch:latest");
        assert_eq!(img.reference(), "pytorch/pytorch:latest");
    }

    #[test]
    fn shared_defaults_is_one_instance() {
        let a = shared_dl_defaults();
        let b = shared_dl_defaults();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.contains("keras/keras:latest"));
    }

    #[test]
    fn get_shared_aliases_the_stored_image() {
        let r = ImageRegistry::with_dl_defaults();
        let a = r.get_shared("pytorch/pytorch:latest").unwrap();
        let b = r.get_shared("pytorch/pytorch:latest").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "no string clones on lookup");
        assert!(r.get_shared("missing:latest").is_none());
    }
}
